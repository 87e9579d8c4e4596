//! # arrayeq-bench
//!
//! Workload construction shared by the Criterion benches and the
//! `run_experiments` binary that regenerate the paper's evaluation
//! (experiments E1–E12, defined in `src/bin/run_experiments.rs`).
//!
//! The heavy lifting lives in the other crates; this one only assembles
//! (original, transformed) program pairs of controlled size and provides
//! small timing helpers so that every table can be reproduced both through
//! `cargo bench -p arrayeq-bench` and through
//! `cargo run -p arrayeq-bench --bin run_experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arrayeq_core::{verify_programs, CheckOptions, Report};
use arrayeq_lang::ast::Program;
use arrayeq_lang::corpus::{with_size, FIG1_A};
use arrayeq_lang::interp::{Inputs, Interpreter};
use arrayeq_lang::parser::parse_program;
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::random_pipeline;
use std::time::{Duration, Instant};

/// A ready-to-check pair of programs plus a description.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in bench/table rows.
    pub name: String,
    /// The original program.
    pub original: Program,
    /// The transformed program (equivalent by construction unless noted).
    pub transformed: Program,
}

impl Workload {
    /// Runs the checker on the pair with the given options.
    ///
    /// # Panics
    ///
    /// Panics if the verification pipeline itself fails (the pairs produced
    /// by this crate are all in the supported class).
    pub fn check(&self, opts: &CheckOptions) -> Report {
        verify_programs(&self.original, &self.transformed, opts)
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name))
    }
}

/// The Fig. 1 pairs of the paper at its native size (N = 1024).
pub fn fig1_pairs() -> Vec<(String, String, String)> {
    use arrayeq_lang::corpus::*;
    vec![
        ("a-vs-b".into(), FIG1_A.into(), FIG1_B.into()),
        ("a-vs-c".into(), FIG1_A.into(), FIG1_C.into()),
        ("b-vs-c".into(), FIG1_B.into(), FIG1_C.into()),
        ("a-vs-d".into(), FIG1_A.into(), FIG1_D.into()),
    ]
}

/// A Fig. 1(a)-shaped workload with the loop bound set to `n`, transformed by
/// a deterministic random pipeline (experiment E6).
pub fn fig1a_pipeline_at_size(n: i64, steps: usize, seed: u64) -> Workload {
    let original = parse_program(&with_size(FIG1_A, n)).expect("fig1(a) parses");
    let (transformed, _) = random_pipeline(&original, steps, seed);
    Workload {
        name: format!("fig1a-N{n}"),
        original,
        transformed,
    }
}

/// A generated kernel with `layers` statements, transformed by a random
/// pipeline (experiments E5, E7, E9).
pub fn generated_pair(layers: usize, n: i64, seed: u64) -> Workload {
    let cfg = GeneratorConfig {
        n,
        layers,
        seed,
        ..Default::default()
    };
    let original = generate_kernel(&cfg);
    let (transformed, _) = random_pipeline(&original, 2 * layers, seed + 1);
    Workload {
        name: format!("gen-L{layers}-N{n}"),
        original,
        transformed,
    }
}

/// A *wide* multi-output kernel (shared base layer + one chain per output,
/// chains repeating every `distinct_chains` outputs when non-zero) paired
/// with a random transformation pipeline — the PR4 workload shape: the
/// per-output obligations shard across the parallel checker's workers, and
/// the repeated chains are what the rename-invariant tabling keys collapse.
pub fn wide_pair(
    layers: usize,
    outputs: usize,
    distinct_chains: usize,
    n: i64,
    seed: u64,
) -> Workload {
    let mut w = wide_pair_steps(layers, outputs, distinct_chains, n, 4, seed);
    // Keep the historical row name (no pipeline-length suffix) stable for
    // the PR4/PR5 snapshots.
    w.name = format!("wide-L{layers}-O{outputs}-D{distinct_chains}-N{n}");
    w
}

/// [`wide_pair`] with an explicit transformation-pipeline length.
///
/// The default 4 steps leave most chains untouched, so per-output check
/// cost stays near the plain-traversal floor.  The PR6 incremental
/// experiment instead wants every chain non-trivially transformed — the
/// expensive-pair regime where re-checking from scratch actually hurts —
/// which takes a pipeline length proportional to the statement count.
pub fn wide_pair_steps(
    layers: usize,
    outputs: usize,
    distinct_chains: usize,
    n: i64,
    steps: usize,
    seed: u64,
) -> Workload {
    let cfg = GeneratorConfig {
        n,
        layers,
        outputs,
        distinct_chains,
        inputs: 3,
        seed,
        ..Default::default()
    };
    let original = generate_kernel(&cfg);
    let (transformed, _) = random_pipeline(&original, steps, seed + 1);
    Workload {
        name: format!("wide-L{layers}-O{outputs}-D{distinct_chains}-N{n}-S{steps}"),
        original,
        transformed,
    }
}

/// The PR5 algebraic-normalization corpus: pairs that are equivalent
/// exactly through the widened operator algebra — the hand-written
/// factored/expanded, subtraction-shuffle and identity/constant-fold
/// corpus pairs, plus generated algebra-rich kernels rewritten by the
/// `transform::algebraic` rules (distribution, subtraction rotation,
/// identity noise).  Every pair verifies `Equivalent` under the extended
/// method and `NotEquivalent` under the basic method — the pr5 experiment
/// hard-asserts both.
pub fn algebraic_corpus(seed: u64) -> Vec<Workload> {
    use arrayeq_transform::algebraic::{
        distribute_program, insert_identity_noise, shuffle_subtractions,
    };
    let mut out = Vec::new();
    for (name, a, b) in arrayeq_lang::corpus::ALGEBRAIC_PAIRS {
        out.push(Workload {
            name: name.to_owned(),
            original: parse_program(a).expect("algebraic pair parses"),
            transformed: parse_program(b).expect("algebraic pair parses"),
        });
    }
    for s in 0..3u64 {
        let original = generate_kernel(&GeneratorConfig {
            n: 48,
            layers: 3,
            inputs: 3,
            fanin: 3,
            algebra: true,
            seed: seed + s,
            ..Default::default()
        });
        let (distributed, _) = distribute_program(&original);
        out.push(Workload {
            name: format!("gen-distribute-{s}"),
            original: original.clone(),
            transformed: distributed,
        });
        let mut shuffled = original.clone();
        let labels: Vec<String> = original.statements().map(|a| a.label.clone()).collect();
        for label in labels {
            let (next, _) = shuffle_subtractions(&shuffled, &label);
            shuffled = next;
        }
        out.push(Workload {
            name: format!("gen-subshuffle-{s}"),
            original: original.clone(),
            transformed: shuffled,
        });
        let (noised, _) = insert_identity_noise(&original, seed + s);
        out.push(Workload {
            name: format!("gen-identnoise-{s}"),
            original,
            transformed: noised,
        });
    }
    // A rewrite that drew no applicable site leaves the program unchanged;
    // such pairs prove nothing about normalization, so they drop out.
    out.retain(|w| w.original != w.transformed);
    out
}

/// The realistic-kernel suite (experiment E8): every corpus kernel paired
/// with a random transformation pipeline of itself.
pub fn kernel_suite(seed: u64) -> Vec<Workload> {
    arrayeq_lang::corpus::KERNELS
        .iter()
        .map(|(name, src)| {
            let original = parse_program(src).expect("kernel parses");
            let (transformed, _) = random_pipeline(&original, 6, seed);
            Workload {
                name: (*name).to_owned(),
                original,
                transformed,
            }
        })
        .collect()
}

/// One round of the PR3 repeated-verification corpus.
///
/// The *repeated* half is identical in every round — the re-check regime,
/// where a service re-validates the same pair after every pipeline run (CI
/// on an unchanged file, replayed refactoring scripts).  The *perturbed*
/// half keeps each original program but re-transforms it with a
/// round-specific random pipeline — the successive-refactorings regime,
/// where consecutive queries share most sub-computations without being
/// identical.  A shared-session engine should convert both kinds of overlap
/// into cross-query table hits; fresh per-call state cannot.
pub fn pr3_round(round: u64) -> Vec<Workload> {
    let mut out = Vec::new();
    // Repeated: identical workloads every round.
    for layers in [4usize, 8, 16] {
        out.push(generated_pair(layers, 256, 11));
    }
    for (name, a, b) in fig1_pairs().into_iter().take(3) {
        out.push(Workload {
            name,
            original: parse_program(&a).expect("fig1 parses"),
            transformed: parse_program(&b).expect("fig1 parses"),
        });
    }
    // Perturbed: same original, fresh transformation pipeline per round.
    for layers in [4usize, 8] {
        let cfg = GeneratorConfig {
            n: 256,
            layers,
            seed: 77,
            ..Default::default()
        };
        let original = generate_kernel(&cfg);
        let (transformed, _) = random_pipeline(&original, 2 * layers, 9000 + round);
        out.push(Workload {
            name: format!("perturbed-L{layers}-r{round}"),
            original,
            transformed,
        });
    }
    out
}

/// Simulation baseline: executes both programs of a Fig.-1-shaped pair on
/// one input vector and compares outputs.  Returns whether they agreed.
pub fn simulate_fig1_pair(original: &Program, transformed: &Program, n: i64) -> bool {
    let a: Vec<i64> = (0..2 * n + 4).map(|i| 3 * i + 1).collect();
    let b: Vec<i64> = (0..2 * n + 4).map(|i| 7 * i - 5).collect();
    let inputs = Inputs::new()
        .array("A", a)
        .array("B", b)
        .output("C", n as usize);
    let o1 = Interpreter::new(original)
        .run_for_output(&inputs, "C")
        .expect("original runs");
    let o2 = Interpreter::new(transformed)
        .run_for_output(&inputs, "C")
        .expect("transformed runs");
    o1 == o2
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration in milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_equivalent_by_construction() {
        let w = generated_pair(3, 64, 5);
        assert!(w.check(&CheckOptions::default()).is_equivalent());
        let w = fig1a_pipeline_at_size(64, 4, 2);
        assert!(w.check(&CheckOptions::default()).is_equivalent());
    }

    #[test]
    fn kernel_suite_covers_every_corpus_kernel() {
        let suite = kernel_suite(1);
        assert_eq!(suite.len(), arrayeq_lang::corpus::KERNELS.len());
    }

    #[test]
    fn simulation_agrees_for_equivalent_pairs() {
        let w = fig1a_pipeline_at_size(64, 4, 2);
        assert!(simulate_fig1_pair(&w.original, &w.transformed, 64));
    }
}
