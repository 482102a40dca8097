//! Runs every experiment in `EXPERIMENTS.md` (E1–E14) back to back —
//! the single-command reproduction of the whole paper:
//!
//! ```text
//! cargo run --release -p beeps-bench --bin all_experiments
//! ```
//!
//! Pass `--threads N` (or set `BEEPS_THREADS`) to fan trials out across
//! workers; output is bitwise identical at any thread count. Expect
//! ~15 s of wall-clock in release mode on one core; each experiment's
//! table matches its standalone binary exactly (same seeds) and is also
//! written to `target/experiments/<id>.json`.

#[path = "fig1_upper_bound_overhead.rs"]
mod fig1;
#[path = "fig2_lower_bound_crossover.rs"]
mod fig2;
#[path = "fig3_noise_asymmetry.rs"]
mod fig3;
#[path = "fig4_zeta_progress_measure.rs"]
mod fig4;
#[path = "fig5_independent_noise.rs"]
mod fig5;
#[path = "fig6_phase_breakdown.rs"]
mod fig6;
#[path = "fig7_chunk_sweep.rs"]
mod fig7;
#[path = "tab1_owners_phase.rs"]
mod tab1;
#[path = "tab2_one_sided_reduction.rs"]
mod tab2;
#[path = "tab3_feasible_sets.rs"]
mod tab3;
#[path = "tab4_repetition_scheme.rs"]
mod tab4;
#[path = "tab5_scheme_ablation.rs"]
mod tab5;
#[path = "tab6_energy.rs"]
mod tab6;
#[path = "tab7_owned_rounds.rs"]
mod tab7;

fn main() {
    let experiments: &[(&str, fn())] = &[
        ("E1 (fig1_upper_bound_overhead)", fig1::main),
        ("E2 (fig2_lower_bound_crossover)", fig2::main),
        ("E3 (fig3_noise_asymmetry)", fig3::main),
        ("E4 (tab1_owners_phase)", tab1::main),
        ("E5 (fig4_zeta_progress_measure)", fig4::main),
        ("E6 (tab2_one_sided_reduction)", tab2::main),
        ("E7 (tab3_feasible_sets)", tab3::main),
        ("E8 (fig5_independent_noise)", fig5::main),
        ("E9 (tab4_repetition_scheme)", tab4::main),
        ("E10 (tab5_scheme_ablation)", tab5::main),
        ("E11 (tab6_energy)", tab6::main),
        ("E12 (tab7_owned_rounds)", tab7::main),
        ("E13 (fig6_phase_breakdown)", fig6::main),
        ("E14 (fig7_chunk_sweep)", fig7::main),
    ];
    for (i, (name, run)) in experiments.iter().enumerate() {
        println!(
            "================ [{} / {}] {name} ================\n",
            i + 1,
            experiments.len()
        );
        let sw = beeps_observe::clock::Stopwatch::start();
        run();
        println!("(took {:.1}s)\n", sw.elapsed().as_secs_f64());
    }
    println!("All {} experiments complete.", experiments.len());
}
