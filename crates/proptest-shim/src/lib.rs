//! # proptest (offline shim)
//!
//! This workspace builds with **no registry access**, so the real
//! [proptest](https://crates.io/crates/proptest) crate cannot be fetched.
//! This crate is a small, API-compatible subset covering exactly what the
//! workspace's property tests use:
//!
//! * [`Strategy`] with [`Strategy::prop_map`], implemented for integer and
//!   `f64` ranges and for tuples up to arity 8,
//! * [`Just`], [`any`], [`collection::vec`], [`option::of`],
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros,
//! * [`ProptestConfig::with_cases`].
//!
//! Semantics differ from upstream in two deliberate ways: values are drawn
//! from a deterministic per-test RNG (seeded from the test's module path,
//! so runs are reproducible without a persistence file), and there is **no
//! shrinking** — on failure the shim reports the failing case index, which
//! is enough to re-run the exact case under a debugger.

#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::Range;

pub mod test_runner {
    //! The deterministic RNG driving value generation.

    /// SplitMix64-based generator; one instance per test case.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case `case` of the test uniquely named `name`.
        pub fn for_case(name: &str, case: u64) -> TestRng {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: h ^ case.wrapping_mul(0x9e3779b97f4a7c15) }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`; `n` must be nonzero.
        pub fn u64_below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform in `[0, 1)`.
        pub fn f64_unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// A recipe for generating values of [`Strategy::Value`].
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "anything goes" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value of `Self`.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.f64_unit() * 2e9 - 1e9
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-range strategy for `T` (`any::<u64>()`, `any::<bool>()`, …).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

macro_rules! range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.u64_below(span) as i128) as $t
            }
        }
    )*};
}
range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.f64_unit() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! tuple_strategy {
    ($($s:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[expect(non_snake_case, reason = "the tuple bindings reuse the type parameter names")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

pub mod strategy {
    //! Combinator strategies ([`Union`] backs [`prop_oneof!`](crate::prop_oneof)).

    use super::{Strategy, TestRng};

    /// Uniform choice between boxed alternative strategies.
    pub struct Union<V> {
        arms: Vec<Box<dyn Fn(&mut TestRng) -> V>>,
    }

    impl<V> Union<V> {
        /// Builds a union from pre-boxed arms (see [`arm`]).
        pub fn new(arms: Vec<Box<dyn Fn(&mut TestRng) -> V>>) -> Union<V> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.u64_below(self.arms.len() as u64) as usize;
            (self.arms[i])(rng)
        }
    }

    /// Boxes a strategy as a [`Union`] arm.
    pub fn arm<S: Strategy + 'static>(s: S) -> Box<dyn Fn(&mut TestRng) -> S::Value> {
        Box::new(move |rng| s.generate(rng))
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `vec(element, len_range)`: a vector of `element` draws.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::{Strategy, TestRng};

    /// Strategy for `Option`s (see [`of`]).
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `of(inner)`: `None` or `Some(inner draw)` with equal probability.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Configuration accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Prints the failing case index if the test body panics.
pub struct CaseGuard {
    /// Fully qualified test name.
    pub name: &'static str,
    /// Case index within the test.
    pub case: u64,
    /// Whether the guard is still armed (disarmed after a clean pass).
    pub armed: bool,
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            eprintln!(
                "proptest-shim: property {} failed at case #{} \
                 (cases are deterministic; re-run to reproduce)",
                self.name, self.case
            );
        }
    }
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($argpat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for __case in 0..config.cases as u64 {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                let mut __guard = $crate::CaseGuard {
                    name: concat!(module_path!(), "::", stringify!($name)),
                    case: __case,
                    armed: true,
                };
                $(let $argpat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                { $body }
                __guard.armed = false;
                let _ = &__guard;
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property (panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (panics like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![ $( $crate::strategy::arm($arm) ),+ ])
    };
}

pub mod prelude {
    //! The usual glob import: `use proptest::prelude::*;`.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, Just, ProptestConfig,
        Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("t", 0);
        for _ in 0..1000 {
            let v = crate::Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = crate::Strategy::generate(&(0.5f64..2.5), &mut rng);
            assert!((0.5..2.5).contains(&f));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::for_case("name", 7);
        let mut b = crate::test_runner::TestRng::for_case("name", 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_round_trip(
            x in 0u32..10,
            v in crate::collection::vec(0.0f64..1.0, 0..5),
            o in crate::option::of(0u8..3),
        ) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 5);
            if let Some(b) = o {
                prop_assert!(b < 3);
            }
            let mapped = Just(x).prop_map(|y| y + 1);
            let mut rng = crate::test_runner::TestRng::for_case("inner", 0);
            prop_assert_eq!(crate::Strategy::generate(&mapped, &mut rng), x + 1);
        }
    }
}
