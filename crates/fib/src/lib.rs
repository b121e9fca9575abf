#![forbid(unsafe_code)]
//! Exact Fibonacci kernel used throughout the stream-merging reproduction.
//!
//! The optimal delay-guaranteed merge cost of Bar-Noy–Goshi–Ladner is governed
//! by Fibonacci numbers (their Eq. (6): `M(n) = (k−1)·n − F_{k+2} + 2` for
//! `F_k ≤ n ≤ F_{k+1}`), the optimal last-merge intervals `I(n)` are phrased
//! in Fibonacci coordinates (their Theorem 3), and the on-line algorithm
//! chooses tree sizes `F_h` with `F_{h+1} < L+2 ≤ F_{h+2}` (their Theorem 12).
//!
//! This crate provides the exact integer machinery those results need:
//!
//! * [`FIB`] — the compile-time table `F_0 ..= F_93` of every Fibonacci
//!   number that fits in a `u64`, with the paper's indexing
//!   `F_0 = 0, F_1 = 1, F_2 = 1, …`; [`fib`] is a checked lookup into it;
//! * rank queries over the table: [`largest_index_le`], the paper's
//!   `n = F_k + m` split [`decompose`], and Theorem 12's [`theorem12_h`];
//! * [`fib_fast_doubling`] (`O(log k)`) and [`binet_approx`], independent
//!   computations the table is tested against;
//! * [`golden`] — golden-ratio asymptotics (`log_φ`, Binet bounds) backing the
//!   paper's Theorems 8, 13, 19 and 20.

pub mod golden;
pub mod seq;

pub use golden::{binet_approx, log_phi, PHI, PHI_HAT, SQRT5};
pub use seq::{
    decompose, fib, fib_fast_doubling, is_fibonacci, largest_index_le, theorem12_h, FIB,
    MAX_FIB_INDEX_U64,
};
