//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the subset of proptest the workspace's property tests use: the
//! [`proptest!`] macro, range and [`collection`] strategies,
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assume!`], and
//! [`ProptestConfig::with_cases`]. Inputs are drawn uniformly at random
//! from each strategy with a deterministic per-test seed.
//!
//! Differences from the real crate, deliberately accepted:
//! * **No shrinking** — a failing case reports the exact inputs that
//!   failed (they are `Debug`-printed) but is not minimized.
//! * **No persistence** — `proptest-regressions` files are ignored.
//! * Case generation is uniform rather than edge-case-biased.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{RngExt, SeedableRng};

/// The RNG handed to strategies and generated test closures (re-exported so
/// the [`proptest!`] expansion can name it via `$crate::`).
pub use rand::rngs::StdRng;

/// Runner configuration (the `with_cases` subset).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assert*` failed with this message.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped, not failed.
    Reject,
}

/// Result type of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A source of random test inputs.
pub trait Strategy {
    /// The generated input type.
    type Value: std::fmt::Debug;

    /// Draws one input.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f` (mirrors `Strategy::prop_map`).
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: std::fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: std::fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Tuples of strategies generate tuples of values, mirroring the real
/// crate's composite inputs (`(0..10, 0.0f32..1.0)`).
macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut StdRng) -> f32 {
        rng.random_range(self.clone())
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.random_range(self.clone())
    }
}

macro_rules! int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )+};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A strategy producing one fixed value (mirrors `proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{StdRng, Strategy};
    use std::collections::BTreeMap;

    /// Sizes accepted by [`vec()`]/[`btree_map`]: an exact `usize` or a range.
    pub trait IntoSizeRange {
        /// Lower and upper bound (exclusive) of the collection length.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// Strategy for `Vec`s with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        assert!(lo < hi, "empty collection size range");
        VecStrategy { element, lo, hi }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            use rand::RngExt;
            let n = rng.random_range(self.lo..self.hi);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap`s with sizes drawn from `size` (distinct keys
    /// permitting; duplicate key draws shrink the map like the real crate).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl IntoSizeRange,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        let (lo, hi) = size.bounds();
        assert!(lo < hi, "empty collection size range");
        BTreeMapStrategy { key, value, lo, hi }
    }

    /// See [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        lo: usize,
        hi: usize,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut StdRng) -> BTreeMap<K::Value, V::Value> {
            use rand::RngExt;
            let n = rng.random_range(self.lo..self.hi);
            let mut out = BTreeMap::new();
            for _ in 0..n {
                out.insert(self.key.sample(rng), self.value.sample(rng));
            }
            out
        }
    }
}

/// Runs `cases` random executions of `case`, seeding input generation
/// deterministically from the test name. Called by [`proptest!`]-generated
/// tests, not directly.
pub fn run_cases(
    name: &str,
    config: &ProptestConfig,
    mut case: impl FnMut(&mut StdRng) -> TestCaseResult,
) {
    // FNV-1a over the test name: each test gets its own input stream, and
    // reruns are identical.
    let mut seed = 0xCBF2_9CE4_8422_2325u64;
    for &b in name.as_bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut executed = 0u32;
    let mut attempts = 0u32;
    // Cap rejects like the real runner, so a bad prop_assume can't loop
    // forever.
    let max_attempts = config.cases.saturating_mul(64).max(1024);
    while executed < config.cases {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "{name}: too many prop_assume! rejections ({attempts} attempts for {executed} cases)"
        );
        match case(&mut rng) {
            Ok(()) => executed += 1,
            Err(TestCaseError::Reject) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("{name}: property failed at case {executed}: {msg}")
            }
        }
    }
}

/// Everything the workspace's tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, Map,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };

    /// `prop::collection::vec(...)` paths resolve through this alias.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Fails the current case unless `cond` holds (with an optional message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}; {}) at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    }};
}

/// Fails the current case if `left == right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} != {} (both: {:?}) at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                file!(),
                line!()
            )));
        }
    }};
}

/// Skips the current case (drawing fresh inputs) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares property tests: each `fn name(input in strategy, ...) { body }`
/// becomes a `#[test]` running the body over random strategy draws.
#[macro_export]
macro_rules! proptest {
    // With a leading config attribute.
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config = $config;
                $crate::run_cases(
                    stringify!($name),
                    &config,
                    |__proptest_rng: &mut $crate::StdRng| -> $crate::TestCaseResult {
                        $(let $arg = $crate::Strategy::sample(&($strategy), __proptest_rng);)+
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
    // Default config.
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strategy),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_hold(x in 0.0f32..5.0, n in 3usize..9) {
            prop_assert!((0.0..5.0).contains(&x));
            prop_assert!((3..9).contains(&n), "n was {}", n);
        }

        #[test]
        fn vec_strategy_sizes(v in prop::collection::vec(-1.0f64..1.0, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        }

        #[test]
        fn exact_size_vec(v in prop::collection::vec(0u32..10, 8)) {
            prop_assert_eq!(v.len(), 8);
        }

        #[test]
        fn btree_map_strategy(m in prop::collection::btree_map(0u32..1000, -1.0f32..1.0, 0..64)) {
            prop_assert!(m.len() < 64);
        }

        #[test]
        fn assume_skips(a in 0usize..10, b in 0usize..10) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn mut_bindings_work(mut v in prop::collection::vec(0i32..100, 1..20)) {
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn tuple_strategies_compose((a, b) in (0usize..10, -1.0f32..1.0)) {
            prop_assert!(a < 10);
            prop_assert!((-1.0..1.0).contains(&b));
        }

        #[test]
        fn prop_map_transforms(s in (1usize..6, 1usize..6).prop_map(|(w, h)| w * h)) {
            prop_assert!((1..36).contains(&s));
        }

        #[test]
        fn mapped_vec_of_tuples(
            pairs in prop::collection::vec((0u32..100, 0.5f32..2.0), 1..30)
                .prop_map(|v| v.into_iter().map(|(k, w)| (k, w * 2.0)).collect::<Vec<_>>()),
        ) {
            prop_assert!(!pairs.is_empty());
            prop_assert!(pairs.iter().all(|&(k, w)| k < 100 && (1.0..4.0).contains(&w)));
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic_with_inputs() {
        crate::run_cases("doomed", &ProptestConfig::with_cases(8), |rng| {
            let x = crate::Strategy::sample(&(0usize..10), rng);
            crate::prop_assert!(x > 100, "x was {}", x);
            Ok(())
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let mut first = Vec::new();
        crate::run_cases("det", &ProptestConfig::with_cases(16), |rng| {
            first.push(crate::Strategy::sample(&(0u64..1_000_000), rng));
            Ok(())
        });
        let mut second = Vec::new();
        crate::run_cases("det", &ProptestConfig::with_cases(16), |rng| {
            second.push(crate::Strategy::sample(&(0u64..1_000_000), rng));
            Ok(())
        });
        assert_eq!(first, second);
    }
}
