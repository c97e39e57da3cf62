//! The [`Strategy`] trait and the primitive value strategies.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A generator of random values of type `Self::Value`.
///
/// Unlike the real proptest there is no value tree / shrinking: `generate`
/// directly produces a value from the deterministic [`TestRng`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value from the strategy.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Generates arbitrary values of `T`, mirroring `proptest::prelude::any`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! any_uint {
    ($($t:ty),*) => {
        $(
            impl Strategy for Any<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*
    };
}

any_uint!(u8, u16, u32, u64, usize);

macro_rules! range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*
    };
}

range_strategy!(u8, u16, u32, u64, usize);
