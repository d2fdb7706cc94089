//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace's property suites use,
//! on top of the workspace's deterministic `rand` shim:
//!
//! * the [`strategy::Strategy`] trait with `prop_map`, [`strategy::Just`],
//!   range strategies, [`arbitrary::any`] and `prop::collection::vec`;
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros;
//! * [`test_runner::ProptestConfig`] with a **bounded default case count**:
//!   without configuration a test runs [`test_runner::DEFAULT_CASES`] cases,
//!   an explicit `with_cases(n)` is capped at [`test_runner::MAX_CASES`],
//!   and the `PROPTEST_CASES` environment variable overrides both — so
//!   `cargo test -q` stays fast by default and CI can dial coverage up.
//!
//! Unlike upstream proptest there is no shrinking: every case is derived
//! deterministically from the test's name and the case index, so a failure
//! report identifies the failing case exactly and re-runs reproduce it.

pub mod arbitrary;
pub mod collection_impl;
pub mod strategy;
pub mod test_runner;

pub use test_runner::TestCaseError;

/// The `prop::` module path used by the suites (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::collection_impl::vec;
    }
}

/// Everything the property suites import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares deterministic property tests.
///
/// Supports an optional leading `#![proptest_config(expr)]` followed by any
/// number of `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ config = $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            let __cases = __config.resolved_cases();
            for __case in 0..__cases {
                let mut __rng = $crate::test_runner::case_rng(stringify!($name), __case);
                $(let $arg = $crate::strategy::Strategy::generate(&$strategy, &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest '{}' failed at deterministic case {}/{}: {}",
                        stringify!($name), __case, __cases, e
                    );
                }
            }
        }
        $crate::__proptest_tests!{ config = $config; $($rest)* }
    };
}

/// Asserts a condition inside a proptest body (fails the current case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                        stringify!($left), stringify!($right), __l, __r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {} != {}\n  both: {:?}",
                        stringify!($left), stringify!($right), __l),
            ));
        }
    }};
}

/// Picks uniformly among several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let mut __variants: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,
        > = ::std::vec::Vec::new();
        $(__variants.push(::std::boxed::Box::new($strategy));)+
        $crate::strategy::Union::new(__variants)
    }};
}
