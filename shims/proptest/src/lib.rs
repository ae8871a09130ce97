//! In-tree stand-in for the `proptest` API subset this workspace uses.
//!
//! The build environment has no registry access, so this crate provides a
//! compatible property-testing harness: composable [`strategy::Strategy`]
//! values (ranges, tuples, `prop_map`/`prop_flat_map`, `prop_oneof!`,
//! collections, a small regex-class string generator) and the `proptest!`
//! macro with `prop_assert*` and `ProptestConfig::with_cases`.
//!
//! Differences from the real crate: generation is seeded deterministically
//! from the test name (every run explores the same cases), and failures are
//! reported without shrinking — the failing case index and message are
//! printed instead of a minimised input. A body that panics (a plain
//! `assert!` in a helper, say) prints `proptest <name> failed at case i/n`
//! before the panic resumes, so its case is named too.

#![forbid(unsafe_code)]

pub mod test_runner {
    use std::fmt;

    /// Failure raised by `prop_assert*` or returned from a test body.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
        }
    }

    /// Runner configuration (subset: case count).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real default (256) is tuned for shrinking support; without
            // shrinking a smaller deterministic sweep keeps `cargo test`
            // fast while still exercising the property.
            ProptestConfig { cases: 48 }
        }
    }

    /// Deterministic generator used by strategies (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn seeded(seed: u64) -> Self {
            TestRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// Seed derived from the test name: stable across runs and across
        /// tests added or removed elsewhere in the binary.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng::seeded(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::sync::Arc;

    /// A composable recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// Object-safe view of [`Strategy`] for boxing.
    trait DynStrategy<T> {
        fn gen_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn gen_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.gen_value(rng)
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            self.0.gen_dyn(rng)
        }
    }

    /// Strategy yielding a clone of a fixed value.
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn gen_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.gen_value(rng)).gen_value(rng)
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Clone for OneOf<T> {
        fn clone(&self) -> Self {
            OneOf { arms: self.arms.clone() }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].gen_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Types with a canonical whole-domain strategy (`any::<T>()`).
    pub trait ArbitraryValue: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl ArbitraryValue for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbitraryValue for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Whole-domain strategy for `T` (see [`ArbitraryValue`]).
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: ArbitraryValue>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.gen_value(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }

    /// Strings matched by a tiny regex subset: literal characters,
    /// character classes `[a-z0-9_ ]` (ranges and literals), and the
    /// quantifiers `{n}`, `{m,n}`, `?`, `*`, `+`.
    impl Strategy for &'static str {
        type Value = String;
        fn gen_value(&self, rng: &mut TestRng) -> String {
            gen_regex_subset(self, rng)
        }
    }

    fn gen_regex_subset(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            // One atom: a class or a literal character.
            let alphabet: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"));
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                        for c in lo..=hi {
                            set.push(char::from_u32(c).unwrap());
                        }
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = if chars[i] == '\\' && i + 1 < chars.len() {
                    i += 1;
                    chars[i]
                } else {
                    chars[i]
                };
                i += 1;
                vec![c]
            };
            assert!(!alphabet.is_empty(), "empty character class in {pattern:?}");

            // Optional quantifier.
            let (min, max): (u64, u64) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"));
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("quantifier min"),
                        hi.trim().parse().expect("quantifier max"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("quantifier count");
                        (n, n)
                    }
                }
            } else if i < chars.len() && (chars[i] == '*' || chars[i] == '+' || chars[i] == '?') {
                let q = chars[i];
                i += 1;
                match q {
                    '*' => (0, 8),
                    '+' => (1, 8),
                    _ => (0, 1),
                }
            } else {
                (1, 1)
            };

            let n = min + rng.below(max - min + 1);
            for _ in 0..n {
                out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
            }
        }
        out
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Accepted size specifications for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max_inclusive: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max_inclusive: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { min: *r.start(), max_inclusive: *r.end() }
        }
    }

    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: vectors of `elem` with length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_inclusive - self.size.min) as u64;
            let n = self.size.min + rng.below(span + 1) as usize;
            (0..n).map(|_| self.elem.gen_value(rng)).collect()
        }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    #[derive(Clone)]
    pub struct OptionStrategy<S>(S);

    /// `proptest::option::of`: `Some` three times out of four.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.gen_value(rng))
            }
        }
    }
}

/// Run each property as `cases` deterministic random trials.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident(
        $($pat:pat in $strat:expr),+ $(,)?
    ) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let __pt_config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __pt_rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            let __pt_strats = ($($strat,)+);
            for __pt_case in 0..__pt_config.cases {
                let ($($pat,)+) =
                    $crate::strategy::Strategy::gen_value(&__pt_strats, &mut __pt_rng);
                let __pt_result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body;
                        ::std::result::Result::Ok(())
                    },
                ))
                .unwrap_or_else(|payload| {
                    ::std::eprintln!(
                        "proptest {} failed at case {}/{}",
                        stringify!($name), __pt_case + 1, __pt_config.cases
                    );
                    ::std::panic::resume_unwind(payload)
                });
                match __pt_result {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err(e) => panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name), __pt_case + 1, __pt_config.cases, e
                    ),
                }
            }
        }
    )*};
}

/// Assert inside a `proptest!` body; failure fails only the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{}: `{:?}` != `{:?}`", format!($($fmt)+), l, r);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "{}: `{:?}` == `{:?}`", format!($($fmt)+), l, r);
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_tuples_and_vec_generate_in_bounds() {
        let mut rng = TestRng::seeded(1);
        let s = (0u8..4, 10i64..=20);
        for _ in 0..500 {
            let (a, b) = Strategy::gen_value(&s, &mut rng);
            assert!(a < 4 && (10..=20).contains(&b));
        }
        let v = crate::collection::vec(0u32..7, 2..5);
        for _ in 0..200 {
            let xs = Strategy::gen_value(&v, &mut rng);
            assert!((2..5).contains(&xs.len()));
            assert!(xs.iter().all(|&x| x < 7));
        }
    }

    #[test]
    fn regex_subset_strings() {
        let mut rng = TestRng::seeded(2);
        for _ in 0..200 {
            let s = Strategy::gen_value(&"[a-z_]{1,24}", &mut rng);
            assert!((1..=24).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| c == '_' || c.is_ascii_lowercase()));
            let t = Strategy::gen_value(&"[a-z ]{0,8}", &mut rng);
            assert!(t.len() <= 8);
        }
    }

    #[test]
    fn oneof_map_and_boxed_compose() {
        let mut rng = TestRng::seeded(3);
        let s: BoxedStrategy<i64> = prop_oneof![
            Just(5i64),
            (0i64..3).prop_map(|v| v * 100),
        ]
        .boxed();
        let mut saw_just = false;
        let mut saw_map = false;
        for _ in 0..100 {
            match Strategy::gen_value(&s, &mut rng) {
                5 => saw_just = true,
                v if v % 100 == 0 => saw_map = true,
                v => panic!("unexpected {v}"),
            }
        }
        assert!(saw_just && saw_map);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn macro_binds_and_asserts(a in 0u32..100, b in 0u32..100) {
            prop_assert!(a < 100 && b < 100);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a + b + 1, a + b);
        }
    }

    static CASES: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        fn panics_at_case_three(_x in 0u32..10) {
            let case = CASES.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            assert!(case != 3, "body panicked");
        }
    }

    #[test]
    fn panicking_body_resumes_its_own_panic() {
        let err = std::panic::catch_unwind(panics_at_case_three).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"body panicked"), "the payload resumes");
        assert_eq!(CASES.load(std::sync::atomic::Ordering::Relaxed), 3, "no case runs after it");
    }

    proptest! {
        #[test]
        fn default_config_runs(xs in crate::collection::vec(crate::strategy::any::<u8>(), 0..32)) {
            let doubled: Vec<u16> = xs.iter().map(|&x| x as u16 * 2).collect();
            prop_assert_eq!(doubled.len(), xs.len());
        }
    }
}
