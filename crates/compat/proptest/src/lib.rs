//! Minimal offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: the
//! [`proptest!`] macro over functions with `arg in strategy` parameters,
//! range strategies, [`strategy::Just`], [`prop_oneof!`],
//! `prop::collection::vec`, [`prop_assert!`] / [`prop_assert_eq!`] /
//! [`prop_assume!`]. Each property runs a fixed number of random cases
//! (no shrinking, no failure persistence).

pub mod collection;
pub mod strategy;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cases run per property.
pub const NUM_CASES: usize = 128;

/// Construct the per-property RNG (deterministic per seed).
pub fn new_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The proptest prelude: strategies, macros and the `prop` module path.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};

    /// Mirror of proptest's `prop::` module path (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: NUM_CASES as u32,
        }
    }
}

/// Run each body under the macro a fixed number of times with freshly
/// sampled arguments.
#[macro_export]
macro_rules! proptest {
    (@cases $cases:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                // Seed differs per property so failures don't correlate,
                // but is fixed per name for reproducibility.
                let mut __rng = $crate::new_rng(0x5eed_0000 ^ stringify!($name).len() as u64);
                for __case in 0..$cases {
                    let _ = __case;
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    let __run = || { $body };
                    __run();
                }
            }
        )*
    };
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest! { @cases ($config).cases as usize; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @cases $crate::NUM_CASES; $($rest)* }
    };
}

/// Assertion inside a property (stub: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property (stub: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skip the current case when an assumption fails (early-returns from the
/// per-case closure the [`proptest!`] macro wraps bodies in).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if $cond {
        } else {
            return;
        }
    };
}

/// Choose uniformly between several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::one_of(vec![$(::std::boxed::Box::new($strat)),+])
    };
}
