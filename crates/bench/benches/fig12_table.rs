//! The Figure 12 table as a benchmark: each row's full verification
//! pipeline (proof obligations + history model-checking), timed per data
//! type, and the rendered table printed once at the end.
//!
//! Run with `cargo bench -p ral-bench --bench fig12_table`.

use ral_bench::{bench_group, bench_main, Criterion};
use ral_verify::families as f;
use ral_verify::table::{self, op_row, state_row};
use std::hint::black_box;

const HISTORIES: u64 = 5;
const SEED: u64 = 0xBE7C;

fn bench_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12");
    group.sample_size(10);
    macro_rules! row {
        ($name:literal, $f:path) => {
            group.bench_function($name, |b| {
                b.iter(|| {
                    let row = $f(HISTORIES, SEED);
                    assert!(row.verified(), "{} failed", row.name);
                    black_box(row)
                })
            });
        };
    }
    row!("counter", op_row::<f::Counter>);
    row!("pn_counter", state_row::<f::PnCounter>);
    row!("lww_register", op_row::<f::LwwRegister>);
    row!("mv_register", state_row::<f::MvRegister>);
    row!("lww_element_set", state_row::<f::LwwElementSet>);
    row!("two_phase_set", state_row::<f::TwoPhaseSet>);
    row!("or_set", op_row::<f::OrSet>);
    row!("rga", op_row::<f::Rga>);
    row!("wooki", op_row::<f::Wooki>);
    group.finish();

    // Print the reproduced table once, alongside the timings.
    let rows = table::fig12_rows(HISTORIES, SEED);
    println!("\n{}", table::render_fig12(&rows));
}

bench_group!(fig12, bench_rows);
bench_main!(fig12);
