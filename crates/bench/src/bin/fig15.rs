//! Figures 14+15: address-mapping policy exploration for ITESP.
//! The figure and its fold: [`itesp_bench::grid::fig15`].
//!
//! Run: `cargo run --release -p itesp-bench --bin fig15 [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`, `--retries`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::fig15::FIGURE);
}
