//! Compile-time thread-safety guarantees for the text-side indexes.
//!
//! A built [`TextCollection`] (FM-index, plain store, predicates) is
//! immutable and must be `Send + Sync` so many evaluator threads can run
//! text predicates against one shared collection (`sxsi-engine`).

use sxsi_text::{FmIndex, PlainTexts, RowRange, TextCollection, TextPredicate};

fn require_send_sync<T: Send + Sync>() {}

#[test]
fn text_index_types_are_send_and_sync() {
    require_send_sync::<TextCollection>();
    require_send_sync::<FmIndex>();
    require_send_sync::<PlainTexts>();
    require_send_sync::<TextPredicate>();
    require_send_sync::<RowRange>();
}
