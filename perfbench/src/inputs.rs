//! Seeded input generation.  Every request a run sends is built here, from
//! the `--seed` argument alone, before any clock starts.  The program under
//! test only ever sees the resulting source texts.

use arrayeq_lang::ast::Program;
use arrayeq_lang::classcheck::check_class;
use arrayeq_lang::defuse::check_def_use;
use arrayeq_lang::interp::{standard_inputs, Interpreter};
use arrayeq_lang::pretty::program_to_string;
use arrayeq_transform::algebraic::commute_statement;
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::mutate::{apply_mutation, fault_corpus, Mutation};
use arrayeq_transform::random_pipeline;

/// The verdict a request must come back with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Equivalent by construction.
    Equivalent,
    /// Inequivalent (established by simulating both programs, or by the
    /// fault corpus's own simulation filter), and the reply must carry a
    /// replay-confirmed witness.
    Witnessed,
}

/// One verification request: two source texts and the known answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    pub name: String,
    pub original: String,
    pub transformed: String,
    pub expect: Expect,
}

/// SplitMix64: the seed mixer behind every derived seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small deterministic generator for choices the benchmark makes itself
/// (edit sites, mix order).
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Kernel seeds stay small so the generator's own `seed + 1` pipeline seed
/// never overflows.
fn kernel_seed(rng: &mut Rng) -> u64 {
    rng.next() >> 16
}

fn equivalent_pair(name: String, original: &Program, transformed: &Program) -> Pair {
    Pair {
        name,
        original: program_to_string(original),
        transformed: program_to_string(transformed),
        expect: Expect::Equivalent,
    }
}

/// `layers`-deep single-output kernel under a `2 * layers`-step random
/// pipeline (the scaling family).
fn chain_kernel(layers: usize, n: i64, seed: u64) -> (Program, Program) {
    let original = generate_kernel(&GeneratorConfig {
        n,
        layers,
        seed,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, 2 * layers, seed + 1);
    (original, transformed)
}

/// Wide kernel: a shared base layer plus one `layers`-deep chain per
/// output, under a `steps`-step random pipeline.
fn wide_kernel(
    layers: usize,
    outputs: usize,
    distinct_chains: usize,
    n: i64,
    steps: usize,
    seed: u64,
) -> (Program, Program) {
    let original = generate_kernel(&GeneratorConfig {
        n,
        layers,
        outputs,
        distinct_chains,
        inputs: 3,
        seed,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, steps, seed + 1);
    (original, transformed)
}

/// deep-seq: `count` single-output 24-statement kernels at N = 256.
pub fn deep_seq(seed: u64, count: usize) -> Vec<Pair> {
    let mut rng = Rng::new(seed, 1);
    (0..count)
        .map(|i| {
            let s = kernel_seed(&mut rng);
            let (a, b) = chain_kernel(DEEP_LAYERS, 256, s);
            equivalent_pair(format!("deep-{i}-L{DEEP_LAYERS}-s{s}"), &a, &b)
        })
        .collect()
}

/// Statements per deep-seq kernel.
const DEEP_LAYERS: usize = 24;

/// wide-par: `count` wide kernels with 12 outputs over 3 repeated chain
/// classes (the shape on which local tabling earns hits).
pub fn wide_par(seed: u64, count: usize) -> Vec<Pair> {
    let mut rng = Rng::new(seed, 2);
    (0..count)
        .map(|i| {
            let s = kernel_seed(&mut rng);
            let (a, b) = wide_kernel(4, 12, 3, 256, 4, s);
            equivalent_pair(format!("wide-{i}-s{s}"), &a, &b)
        })
        .collect()
}

/// The edit-loop inputs: heavily transformed wide kernels (checked from
/// scratch and exported as baselines in set-up) and single-statement edits
/// of their transformed sides.
pub struct EditLoop {
    /// The kernels, as equivalent (original, transformed) pairs.
    pub kernels: Vec<Pair>,
    /// `(kernel index, edited pair)`: the request re-verified against that
    /// kernel's baseline.
    pub edits: Vec<(usize, Pair)>,
}

/// Every `BUG_EVERY`-th edit is an injected bug.  The share is an
/// assumption, not measured traffic: edits in an edit loop are mostly
/// correct, and the share stays under a tenth so that p90 is not decided by
/// which side of the two request kinds it falls on.
const BUG_EVERY: usize = 16;

/// Chain statements (`s{j}x{l}`, `o{j}`) each feed one output only, so an
/// edit there leaves a one-output dirty cone.
fn chain_labels(p: &Program) -> Vec<String> {
    p.statements()
        .map(|a| a.label.clone())
        .filter(|l| l.starts_with('s') || l.starts_with('o'))
        .collect()
}

pub fn edit_loop(seed: u64, kernels: usize, edits: usize) -> EditLoop {
    let mut rng = Rng::new(seed, 3);
    let mut transformed = Vec::new();
    let mut out = EditLoop {
        kernels: Vec::new(),
        edits: Vec::new(),
    };
    for k in 0..kernels {
        let s = kernel_seed(&mut rng);
        let (a, b) = wide_kernel(4, 24, 0, 160, 96, s);
        out.kernels
            .push(equivalent_pair(format!("edit-kernel-{k}-s{s}"), &a, &b));
        transformed.push(b);
    }
    let mut i = 0;
    while out.edits.len() < edits {
        assert!(i < 64 * edits, "the kernels offer no editable statement");
        let k = i % kernels;
        let b = &transformed[k];
        let bug = (out.edits.len() + 1).is_multiple_of(BUG_EVERY);
        let edited = if bug {
            inject_bug(b, &mut rng).map(|(m, p)| (format!("bug-{m}"), p, Expect::Witnessed))
        } else {
            commute_edit(b, &mut rng).map(|(l, p)| (format!("commute@{l}"), p, Expect::Equivalent))
        };
        if let Some((what, p, expect)) = edited {
            out.edits.push((
                k,
                Pair {
                    name: format!("edit-{}-k{k}-{what}", out.edits.len()),
                    original: out.kernels[k].original.clone(),
                    transformed: program_to_string(&p),
                    expect,
                },
            ));
        }
        i += 1;
    }
    out
}

fn commute_edit(p: &Program, rng: &mut Rng) -> Option<(String, Program)> {
    let labels = chain_labels(p);
    for _ in 0..labels.len() {
        let label = &labels[rng.below(labels.len())];
        let (edited, changed) = commute_statement(p, label);
        if changed > 0 {
            return Some((label.clone(), edited));
        }
    }
    None
}

/// A mutation of one chain statement that stays in the program class and
/// that simulation shows to change an output: the known answer comes from
/// the interpreter, not from the checker under test.
fn inject_bug(p: &Program, rng: &mut Rng) -> Option<(String, Program)> {
    let labels = chain_labels(p);
    for _ in 0..4 * labels.len() {
        let label = labels[rng.below(labels.len())].clone();
        let mutation = if rng.below(2) == 0 {
            Mutation::WrongCoefficient { label }
        } else {
            Mutation::SwapOperands { label }
        };
        let Ok(mutant) = apply_mutation(p, &mutation) else {
            continue;
        };
        if in_class(&mutant) && observably_different(p, &mutant) {
            return Some((mutation.to_string(), mutant));
        }
    }
    None
}

fn in_class(p: &Program) -> bool {
    check_class(p).is_ok_and(|r| r.is_ok()) && check_def_use(p).is_ok_and(|r| r.is_ok())
}

fn observably_different(a: &Program, b: &Program) -> bool {
    let inputs = standard_inputs(a, 1);
    let (Ok((ma, _)), Ok((mb, _))) = (
        Interpreter::new(a).run(&inputs),
        Interpreter::new(b).run(&inputs),
    ) else {
        return false;
    };
    a.output_arrays().iter().any(|o| ma.array(o) != mb.array(o))
}

/// The daemon-mix inputs.  Its closed loop sends as many requests as the
/// daemon answers in the run, so requests are not listed up front:
/// [`DaemonMix::request`] derives request `j` from the seed and `j` alone.
pub struct DaemonMix {
    seed: u64,
    /// Pairs whose sub-proofs are in the primed store before the clock.
    pub repeated: Vec<Pair>,
    /// The kernels perturbed requests re-transform.
    perturbed: Vec<Program>,
    mutants: Vec<Pair>,
}

/// Statements per repeated kernel.
const DAEMON_LAYERS: usize = 16;
/// Distinct repeated pairs: enough that one seed's draw of kernels does not
/// decide p50 and p90.
const REPEATED: usize = 48;
/// Statements per perturbed kernel: `pr3_round`'s larger perturbed size.
const PERTURBED_LAYERS: usize = 8;
/// Distinct perturbed kernels.
const PERTURBED: usize = 8;

#[derive(Clone, Copy)]
enum Kind {
    Repeated,
    Perturbed,
    Mutant,
}

/// One round of the daemon mix; request `j` is of kind `ROUND[j % 9]`.
///
/// The proportions are an assumption, not measured traffic.  The repeated
/// and perturbed shares are those of the repository's repeated-verification
/// corpus (`pr3_round` in `crates/bench`: 6 repeated and 2 perturbed pairs
/// per round); the benchmark adds one fault-corpus mutant per round, so
/// that the failure path runs in every round.
const ROUND: [Kind; 9] = [
    Kind::Repeated,
    Kind::Repeated,
    Kind::Repeated,
    Kind::Perturbed,
    Kind::Repeated,
    Kind::Repeated,
    Kind::Repeated,
    Kind::Perturbed,
    Kind::Mutant,
];

fn mutants() -> Vec<Pair> {
    fault_corpus()
        .into_iter()
        .map(|c| Pair {
            name: format!("mutant-{}", c.name),
            original: program_to_string(&c.original),
            transformed: program_to_string(&c.mutant),
            expect: Expect::Witnessed,
        })
        .collect()
}

/// A perturbed pair as `pr3_round` makes them: a kernel under a fresh
/// `2 * layers`-step random pipeline, so it shares most sub-computations
/// with earlier requests on the same kernel without being identical to any.
fn perturbed(name: &str, original: &Program, rng: &mut Rng) -> Pair {
    let pipeline_seed = kernel_seed(rng);
    let (transformed, _) = random_pipeline(original, 2 * PERTURBED_LAYERS, pipeline_seed);
    equivalent_pair(
        format!("{name}-perturbed-p{pipeline_seed}"),
        original,
        &transformed,
    )
}

pub fn daemon_mix(seed: u64) -> DaemonMix {
    let mut rng = Rng::new(seed, 4);
    let mut repeated = Vec::new();
    for i in 0..REPEATED {
        let s = kernel_seed(&mut rng);
        let (a, b) = chain_kernel(DAEMON_LAYERS, 256, s);
        repeated.push(equivalent_pair(format!("repeated-{i}-s{s}"), &a, &b));
    }
    let perturbed = (0..PERTURBED)
        .map(|_| chain_kernel(PERTURBED_LAYERS, 256, kernel_seed(&mut rng)).0)
        .collect();
    DaemonMix {
        seed,
        repeated,
        perturbed,
        mutants: mutants(),
    }
}

impl DaemonMix {
    /// Request `j` of the run.
    pub fn request(&self, j: usize) -> Pair {
        let mut rng = Rng::new(self.seed ^ mix(j as u64), 6);
        match ROUND[j % ROUND.len()] {
            Kind::Repeated => self.repeated[rng.below(self.repeated.len())].clone(),
            Kind::Perturbed => {
                let k = rng.below(self.perturbed.len());
                perturbed(&format!("kernel-{k}"), &self.perturbed[k], &mut rng)
            }
            Kind::Mutant => self.mutants[rng.below(self.mutants.len())].clone(),
        }
    }
}

/// The untimed requests a set-up ends with.  They come from one fixed draw
/// rather than from `--seed`, so that set-up time does not depend on which
/// kernels a seed happens to draw.  edit-loop warms up on its own first
/// edits instead, which need the set-up's baselines.
pub fn warmup(workload: &str) -> Vec<Pair> {
    const FIXED: u64 = 0x5EED;
    const ONE_SHOT: usize = 3;
    match workload {
        "deep-seq" => deep_seq(FIXED, ONE_SHOT),
        "wide-par" => wide_par(FIXED, ONE_SHOT),
        "edit-loop" => Vec::new(),
        _ => {
            let mut rng = Rng::new(FIXED, 5);
            let mut pairs = Vec::new();
            for (i, mutant) in mutants().into_iter().take(2).enumerate() {
                let (a, b) = chain_kernel(DAEMON_LAYERS, 256, kernel_seed(&mut rng));
                pairs.push(equivalent_pair(format!("warmup-chain-{i}"), &a, &b));
                let (p, _) = chain_kernel(PERTURBED_LAYERS, 256, kernel_seed(&mut rng));
                pairs.push(perturbed(&format!("warmup-kernel-{i}"), &p, &mut rng));
                pairs.push(mutant);
            }
            pairs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input a workload generates, first kernels or primed pairs,
    /// then requests.
    fn inputs(workload: &str, seed: u64) -> Vec<Pair> {
        match workload {
            "deep-seq" => deep_seq(seed, 3),
            "wide-par" => wide_par(seed, 3),
            "edit-loop" => {
                let e = edit_loop(seed, 2, BUG_EVERY);
                e.kernels
                    .into_iter()
                    .chain(e.edits.into_iter().map(|(_, p)| p))
                    .collect()
            }
            _ => {
                let m = daemon_mix(seed);
                let requests: Vec<Pair> = (0..2 * ROUND.len()).map(|j| m.request(j)).collect();
                m.repeated.into_iter().chain(requests).collect()
            }
        }
    }

    #[test]
    fn one_seed_always_yields_byte_identical_inputs() {
        for workload in ["deep-seq", "wide-par", "edit-loop", "daemon-mix"] {
            let first = inputs(workload, 11);
            assert_eq!(first, inputs(workload, 11), "{workload}");
            assert_ne!(
                first,
                inputs(workload, 12),
                "{workload}: the seed must matter"
            );
        }
    }

    #[test]
    fn edit_loop_and_daemon_mix_send_their_stated_shares() {
        let edits = edit_loop(5, 2, 2 * BUG_EVERY).edits;
        let bugs = edits.iter().filter(|(_, p)| p.expect == Expect::Witnessed);
        assert_eq!(bugs.count(), 2);
        let m = daemon_mix(5);
        let requests: Vec<Pair> = (0..ROUND.len()).map(|j| m.request(j)).collect();
        let count = |pred: &dyn Fn(&Pair) -> bool| requests.iter().filter(|p| pred(p)).count();
        assert_eq!(count(&|p| p.name.starts_with("mutant-")), 1);
        assert_eq!(count(&|p| p.name.contains("-perturbed-")), 2);
        assert_eq!(count(&|p| m.repeated.contains(p)), 6);
    }
}
