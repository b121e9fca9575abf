#![forbid(unsafe_code)]
//! Optimal off-line algorithms for delay-guaranteed stream merging
//! (paper §3) plus the general-arrivals machinery of \[6\] used as a baseline.
//!
//! The centerpiece results reproduced here:
//!
//! * **Eq. (5)/(6), Theorem 3** — the optimal merge cost for `n` consecutive
//!   arrivals has the Fibonacci closed form
//!   `M(n) = (k−1)·n − F_{k+2} + 2` for `F_k ≤ n ≤ F_{k+1}`
//!   ([`closed_form::merge_cost`]), with the optimal last-merge arrivals
//!   forming the interval `I(n)` ([`closed_form::last_merge_interval`]).
//! * **Theorem 7** — an optimal merge tree is constructible in `O(n)` via
//!   the `r(i) = max I(i)` recurrence ([`tree_builder`]).
//! * **Lemma 9 / Theorems 10, 12** — the optimal merge *forest* balances
//!   tree sizes, and the optimal number of full streams is `⌊n/F_h⌋` or
//!   `⌊n/F_h⌋+1` where `F_{h+1} < L+2 ≤ F_{h+2}` ([`forest`]).
//! * **Theorem 16** — the bounded-buffer variant ([`forest`], cap on tree
//!   size derived from Lemma 15).
//! * **§3.4** — the receive-all model: `Mω(n) = (k+1)n − 2^{k+1} + 1` for
//!   `2^k ≤ n ≤ 2^{k+1}`, and the `log_φ 2 ≈ 1.44` gap of Theorems 19/20
//!   ([`receive_all`]).
//! * **Theorems 8, 13, 14** — asymptotic bounds ([`bounds`]).
//!
//! [`dp`] holds the `O(n²)` dynamic programs the closed forms are verified
//! against, and [`general`] the interval DP of \[6\] for *arbitrary* arrival
//! times (the `O(n²)` algorithm this paper's `O(n)` result improves upon).

pub mod bounds;
pub mod closed_form;
pub mod dp;
pub mod forest;
pub mod general;
pub mod receive_all;
pub mod tree_builder;

pub use closed_form::{last_merge_interval, merge_cost};
pub use forest::{optimal_forest, optimal_full_cost, optimal_s, OptimalForestPlan};
pub use tree_builder::optimal_merge_tree;
