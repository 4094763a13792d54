//! Regenerates the paper's Figure 5. See `wsn_bench` for options.

use wsn_bench::{run_and_print, HarnessOptions};
use wsn_core::Figure;

fn main() {
    let opts = HarnessOptions::from_env();
    run_and_print(&[Figure::Fig5Comparative], &opts);
}
