//! Figure 12: ablation of the evaluator optimizations — naive execution,
//! jumping only, memoization only, and everything enabled — over the XMark
//! query set, each query's automaton run from the root.
use sxsi::SxsiIndex;
use sxsi_bench::{header, row, time_avg_ms, xmark_small_xml};
use sxsi_xpath::eval::{EvalOptions, Evaluator};
use sxsi_xpath::{compile, parse_query, XMARK_QUERIES};

fn main() {
    let index = SxsiIndex::build_from_xml(xmark_small_xml().as_bytes()).expect("builds");
    let configs = [
        EvalOptions::naive(),
        EvalOptions { jumping: true, lazy_regions: true, memoization: false, text_index_predicates: false },
        EvalOptions { jumping: false, lazy_regions: false, memoization: true, text_index_predicates: false },
        EvalOptions::default(),
    ];
    header(
        "Figure 12: impact of jumping and memoization (counting, ms)",
        &["query", "naive", "jumping only", "memoization only", "all optimizations"],
    );
    for q in XMARK_QUERIES {
        let query = parse_query(q.xpath).expect("parses");
        let automaton = compile(&query, index.tree()).expect("every X query compiles top-down");
        let mut cells = vec![q.id.to_string()];
        cells.extend(configs.iter().map(|&eval| {
            let ms = time_avg_ms(2, || {
                Evaluator::new(&automaton, index.tree(), Some(index.texts()), eval).count()
            });
            format!("{ms:.2}")
        }));
        row(&cells);
    }
}
