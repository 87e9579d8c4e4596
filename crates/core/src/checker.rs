//! The synchronized ADDG traversal (Section 5 of the paper).
//!
//! One traversal, one set of reduction rules.  [`Checker::check`] proves an
//! [`Obligation`] — two traversal positions with their output-current
//! mappings — in three moves: [`Checker::resolve`] composes through `Access`
//! nodes (the untabled front of a step), the tables are consulted, and
//! [`Checker::reduce`] performs one reduction step that returns the child
//! obligations in depth-first order (per-definition split with its
//! recurrence assumption, positional operand pairing) or hands the position
//! to a leaf comparison or the algebraic flatten/match path.  The parallel
//! schedule ([`crate::parallel`]) splits work by calling the very same
//! `resolve`/`reduce` and [`Checker::flatten_pieces`], so the sequential run
//! is simply the schedule that never splits.

use crate::context::{BudgetExhausted, CheckContext, SharedTableKey, TableProvenance};
use crate::diagnostics::{Diagnostic, DiagnosticKind};
use crate::normalize::{self, TermArena};
use crate::operators::OperatorProperties;
use crate::report::{CheckStats, Report, Verdict};
use crate::{CoreError, Result};
use arrayeq_addg::{
    describe_node, extract, fingerprints, Addg, Fingerprints, Node, NodeId, OperatorKind,
};
use arrayeq_lang::ast::Program;
use arrayeq_lang::classcheck::assert_in_class;
use arrayeq_lang::defuse::assert_def_use_correct;
use arrayeq_lang::parser::parse_program;
use arrayeq_omega::{Relation, Set};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Which variant of the method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Section 5.1: handles expression propagation and loop transformations
    /// only; operands are paired strictly by position.
    Basic,
    /// Section 5.2 (default): additionally normalises associative /
    /// commutative operators with the flattening and matching operations, so
    /// global algebraic transformations are handled in the same pass.
    #[default]
    Extended,
}

/// Focused checking (Section 6.1): restrict the check to parts of the
/// programs, which both speeds it up and sharpens diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Focus {
    /// Check only these output arrays (all common outputs when empty).
    pub outputs: Vec<String>,
    /// Declared correspondences between intermediate arrays of the original
    /// and the transformed program: when the traversal reaches such a pair
    /// with identical output-current mappings it stops early, treating the
    /// pair like a matching leaf.
    pub intermediate_pairs: Vec<(String, String)>,
}

/// Options controlling a verification run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Basic or extended method.
    pub method: Method,
    /// Operator property declarations.
    pub operators: OperatorProperties,
    /// Whether to table (memoise) established sub-equivalences.
    pub tabling: bool,
    /// Optional focused checking.
    pub focus: Option<Focus>,
    /// Output arrays the caller has *proven* unchanged against a baseline
    /// run (their root obligations are present in the
    /// [`crate::BaselineProofs`] of the context): the traversal skips them
    /// entirely — no domain check, no root obligation — while keeping them
    /// in [`Report::outputs_checked`], so the rendered report is
    /// byte-identical to a from-scratch run in which they silently
    /// succeeded.  This is the dirty-cone focus of incremental
    /// re-verification; unlike [`Focus::outputs`] it narrows *work*, not
    /// the set of outputs the verdict speaks about.  Soundness is the
    /// caller's obligation: list an output only when a baseline proves its
    /// root obligation under these same options.
    pub assume_clean: Vec<String>,
    /// Whether to run the def-use checker before extracting ADDGs (Fig. 6).
    pub check_def_use: bool,
    /// Whether to verify the program-class properties before checking.
    pub check_class: bool,
    /// Upper bound on traversal work (node-pair visits); exceeding it yields
    /// an inconclusive verdict instead of running forever.
    pub max_work: u64,
    /// Symbolic-parameter context applied to both programs before checking:
    /// each `(name, min)` entry *promotes* the named constant to a
    /// `#param name >= min` — an existing `#define` of that name is removed,
    /// an existing `#param` gets the new bound — so loop bounds over it stay
    /// symbolic and one verification covers every admissible value.
    /// Verdict-relevant (it changes what is being proven), hence part of the
    /// engine's options fingerprint.  Empty means "check the programs as
    /// written".
    pub params: Vec<(String, i64)>,
    /// Worker threads for *one* verification run: the root obligation is
    /// split into per-output and per-definition correspondence sub-proofs
    /// executed by a scoped worker pool.  `1` (the default) keeps the
    /// strictly sequential traversal; `0` means "use all available
    /// parallelism".  Verdicts and diagnostics are identical at every
    /// setting ([`crate::Report::render_stable`] is byte-stable); cache/work
    /// counters in [`CheckStats`] are scheduling-dependent at `jobs > 1`.
    pub jobs: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            method: Method::Extended,
            operators: OperatorProperties::default(),
            tabling: true,
            focus: None,
            assume_clean: Vec::new(),
            check_def_use: true,
            check_class: true,
            max_work: 2_000_000,
            params: Vec::new(),
            jobs: 1,
        }
    }
}

impl CheckOptions {
    /// Options for the basic method of Section 5.1.
    pub fn basic() -> Self {
        CheckOptions {
            method: Method::Basic,
            ..Default::default()
        }
    }

    /// Disables tabling (for the ablation experiment E9).
    pub fn without_tabling(mut self) -> Self {
        self.tabling = false;
        self
    }

    /// Sets the worker count for one verification run (see
    /// [`CheckOptions::jobs`]).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Declares symbolic parameters to promote in both programs (see
    /// [`CheckOptions::params`]).
    pub fn with_params(mut self, params: Vec<(String, i64)>) -> Self {
        self.params = params;
        self
    }

    /// Sets a focus.
    pub fn with_focus(mut self, focus: Focus) -> Self {
        self.focus = Some(focus);
        self
    }

    /// Declares outputs proven clean against a baseline (see
    /// [`CheckOptions::assume_clean`]).
    pub fn with_assume_clean(mut self, outputs: Vec<String>) -> Self {
        self.assume_clean = outputs;
        self
    }

    /// The effective worker count: `jobs`, with `0` resolved to the
    /// machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Verifies two functions given as source text, running the full Fig. 6 flow:
/// parse → class check → def-use check → ADDG extraction → equivalence check.
///
/// This is the *one-shot convenience path*: every call runs with fresh
/// caches and only the [`CheckOptions::max_work`] budget.  Long-running
/// services that issue many queries should construct a persistent
/// `arrayeq::engine::Verifier` instead, which threads a [`CheckContext`]
/// (deadline, cancellation, cross-query shared tabling) through
/// [`verify_addgs_with`].
///
/// # Errors
///
/// Returns an error when either program fails to parse, violates the program
/// class, fails the def-use check, or when the functions' interfaces are not
/// comparable.  Inequivalence is *not* an error: it is reported in the
/// returned [`Report`].
pub fn verify_source(original: &str, transformed: &str, opts: &CheckOptions) -> Result<Report> {
    let p1 = parse_program(original)?;
    let p2 = parse_program(transformed)?;
    verify_programs(&p1, &p2, opts)
}

/// Verifies two parsed programs (see [`verify_source`]; one-shot convenience
/// path).
///
/// # Errors
///
/// Same as [`verify_source`], minus parsing.
pub fn verify_programs(
    original: &Program,
    transformed: &Program,
    opts: &CheckOptions,
) -> Result<Report> {
    verify_programs_with(original, transformed, opts, &CheckContext::default())
}

/// Verifies two parsed programs under an explicit [`CheckContext`]
/// (deadline, cancellation, cross-query shared tabling).
///
/// # Errors
///
/// Same as [`verify_programs`].
pub fn verify_programs_with(
    original: &Program,
    transformed: &Program,
    opts: &CheckOptions,
    ctx: &CheckContext<'_>,
) -> Result<Report> {
    // Promote the declared parameter context into both programs first, so
    // class/def-use checks and ADDG extraction all see the symbolic sizes.
    let promoted = (!opts.params.is_empty()).then(|| {
        (
            promote_params(original, &opts.params),
            promote_params(transformed, &opts.params),
        )
    });
    let (original, transformed) = match &promoted {
        Some((a, b)) => (a, b),
        None => (original, transformed),
    };
    if opts.check_class {
        assert_in_class(original)?;
        assert_in_class(transformed)?;
    }
    if opts.check_def_use {
        assert_def_use_correct(original)?;
        assert_def_use_correct(transformed)?;
    }
    let g1 = extract(original)?;
    let g2 = extract(transformed)?;
    verify_addgs_with(&g1, &g2, opts, ctx)
}

/// Applies a [`CheckOptions::params`] context to one program: each named
/// constant becomes a symbolic `#param name >= min`.
fn promote_params(p: &Program, params: &[(String, i64)]) -> Program {
    let mut out = p.clone();
    for (name, min) in params {
        out.defines.remove(name);
        match out.symbolic_params.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = *min,
            None => out.symbolic_params.push((name.clone(), *min)),
        }
    }
    out
}

/// Verifies two already-extracted ADDGs (one-shot convenience path; see
/// [`verify_addgs_with`] for the engine entry point).
///
/// # Errors
///
/// Returns [`CoreError::Incomparable`] when the two graphs do not expose the
/// same output arrays (or the focused outputs are missing).
pub fn verify_addgs(original: &Addg, transformed: &Addg, opts: &CheckOptions) -> Result<Report> {
    verify_addgs_with(original, transformed, opts, &CheckContext::default())
}

/// Verifies two already-extracted ADDGs under an explicit [`CheckContext`].
///
/// This is the entry point the persistent engine uses: the context's
/// deadline and [`crate::CancelToken`] bound the traversal (an exceeded
/// budget surfaces as [`Verdict::Inconclusive`] with a typed
/// [`BudgetExhausted`] reason in [`Report::budget_exhausted`] — never a
/// hang), and its [`crate::SharedEquivalenceTable`] lets this run consume
/// and publish sub-proofs shared with other queries and threads.  When a
/// shared table is present, both graphs are content-fingerprinted
/// ([`arrayeq_addg::fingerprints`]) so tabling keys mean the same thing in
/// every query.
///
/// # Errors
///
/// Same as [`verify_addgs`].
pub fn verify_addgs_with(
    original: &Addg,
    transformed: &Addg,
    opts: &CheckOptions,
    ctx: &CheckContext<'_>,
) -> Result<Report> {
    // Fingerprints key the local tabling cache, every shared-table entry
    // and every baseline lookup, so they are computed whenever tabling is
    // on.  Intermediate array names are folded in only when the options
    // make them verdict-relevant (focused checking with declared
    // intermediate correspondences); otherwise repeated idioms behind
    // renamed temporaries share entries.
    let fp = if opts
        .focus
        .as_ref()
        .is_some_and(|f| !f.intermediate_pairs.is_empty())
    {
        arrayeq_addg::fingerprints_named
    } else {
        fingerprints
    };
    let fps = opts.tabling.then(|| (fp(original), fp(transformed)));
    verify_addgs_with_fps(original, transformed, opts, ctx, fps)
}

/// [`verify_addgs_with`] with the content fingerprints supplied by the
/// caller instead of recomputed.  The incremental path computes both graphs'
/// fingerprints anyway to classify outputs clean/dirty against a baseline;
/// the WL refinement over every node is a few milliseconds on wide kernels —
/// a significant share of a dirty-cone run whose whole point is to be an
/// order of magnitude under the from-scratch wall time — so it hands the
/// same fingerprints straight to the traversal rather than paying twice.
///
/// `fps` must have been computed by the same fingerprint function the
/// options select (`fingerprints_named` under a focus with intermediate
/// pairs, `fingerprints` otherwise); pass `None` to run untabled.
///
/// Every run goes through here: this function owns the per-output prologue
/// (clean outputs, domain checks, out-of-fragment outputs), hands the root
/// obligations to the schedule ([`crate::parallel::run`]: the calling
/// thread at `jobs = 1`, a decomposed worker pool above), and owns the
/// epilogue (counter harvest, verdict, typed reason, report).
///
/// # Errors
///
/// Same as [`verify_addgs`].
pub fn verify_addgs_with_fps(
    original: &Addg,
    transformed: &Addg,
    opts: &CheckOptions,
    ctx: &CheckContext<'_>,
    fps: Option<(Fingerprints, Fingerprints)>,
) -> Result<Report> {
    let started = Instant::now();
    // Solver overflow is reported out-of-band through a sticky thread-local
    // flag; clear any residue from an earlier run on this thread so the
    // harvest below attributes events to this run only.  The DNF engine's
    // counters are thread-local and monotonic too: snapshot here, delta at
    // the end.  Pool workers harvest their own threads.
    let _ = arrayeq_omega::take_arith_overflow();
    let overflow_base = arrayeq_omega::arith_overflow_events();
    let subsumed_base = arrayeq_omega::conjuncts_subsumed_events();
    let fallback_base = arrayeq_omega::bigint_fallback_events();
    crate::parallel::consume_injected_overflow();
    let outputs = select_outputs(original, transformed, opts)?;
    let is_clean = |o: &String| opts.assume_clean.contains(o);

    // Prologue: per output, skip it as baseline-clean, record its domain
    // mismatch, withhold it as out-of-fragment, or pose its root obligation.
    let mut verdicts = Verdicts::new(outputs.len());
    let mut roots = Vec::new();
    let mut domain_hashes = Vec::new();
    let mut cone = 0u64;
    for (i, output) in outputs.iter().enumerate() {
        // Dirty-cone focus: outputs the caller proved clean against a
        // baseline are skipped outright.  They stay in `outputs_checked`
        // and produce no diagnostics — exactly what a from-scratch run in
        // which they succeed silently looks like.
        if is_clean(output) {
            arrayeq_trace::event_with("output_clean", || {
                vec![arrayeq_trace::s("output", output.clone())]
            });
            continue;
        }
        cone += 1;
        let _span = arrayeq_trace::span_with("output", || {
            vec![arrayeq_trace::s("output", output.clone())]
        });
        match check_output_domains(original, transformed, output) {
            Ok(OutputDomains::Match(ea)) => {
                let id = Relation::identity_on(&ea);
                domain_hashes.push((output.clone(), id.structural_hash()));
                roots.push((i, Obligation::root(output, id)));
            }
            Ok(OutputDomains::Mismatch(diag)) => verdicts.record(i, false, vec![*diag]),
            Err(e) => verdicts.withhold(i, e)?,
        }
    }

    let run = crate::parallel::run(
        original,
        transformed,
        opts,
        ctx,
        fps.as_ref(),
        &outputs,
        roots,
        &mut verdicts,
    )?;

    // Epilogue.  Any solver overflow degraded some feasibility answer to its
    // conservative direction mid-run; the verdict would then rest on a
    // weakened constraint system, so it is withheld as inconclusive rather
    // than risked — never silently wrapped, never panicked.
    let mut stats = run.stats;
    let mut overflow_events = run.overflow_events;
    if arrayeq_omega::take_arith_overflow() {
        overflow_events += arrayeq_omega::arith_overflow_events() - overflow_base;
    }
    stats.conjuncts_subsumed += arrayeq_omega::conjuncts_subsumed_events() - subsumed_base;
    stats.bigint_fallbacks += arrayeq_omega::bigint_fallback_events() - fallback_base;
    if !opts.assume_clean.is_empty() {
        stats.cone_positions = cone;
    }
    let mut all_ok = true;
    let mut diagnostics = Vec::new();
    for (i, output) in outputs.iter().enumerate() {
        let ok = verdicts.ok[i];
        if !is_clean(output) {
            arrayeq_trace::event_with("output_verdict", || {
                vec![
                    arrayeq_trace::s("output", output.clone()),
                    arrayeq_trace::b("ok", ok),
                ]
            });
        }
        all_ok &= ok;
        // Stamp each diagnostic with the output whose check produced it, so
        // downstream consumers (witness engine, reports) know which index
        // space a failing domain lives in.
        for mut d in std::mem::take(&mut verdicts.diagnostics[i]) {
            d.output_array.get_or_insert_with(|| output.clone());
            diagnostics.push(d);
        }
    }
    // Budget trips first, then the out-of-fragment reason, a poisoned task
    // and overflow; any of them withholds the verdict.
    let budget_exhausted = run
        .budget
        .or(verdicts.unsupported)
        .or(run
            .panic
            .map(|message| BudgetExhausted::WorkerPanicked { message }))
        .or(
            (overflow_events > 0).then_some(BudgetExhausted::ArithOverflow {
                events: overflow_events,
            }),
        );
    let verdict = if budget_exhausted.is_some() {
        Verdict::Inconclusive
    } else if all_ok {
        Verdict::Equivalent
    } else {
        Verdict::NotEquivalent
    };
    stats.check_time_us = started.elapsed().as_micros() as u64;
    let output_fingerprints = match &fps {
        Some((fa, fb)) => outputs
            .iter()
            .map(|o| (o.clone(), fa.array(o), fb.array(o)))
            .collect(),
        None => Vec::new(),
    };
    Ok(Report {
        verdict,
        diagnostics,
        witnesses: Vec::new(),
        stats,
        outputs_checked: outputs,
        output_fingerprints,
        output_domain_hashes: domain_hashes,
        budget_exhausted,
    })
}

/// Per-output verdicts and diagnostics of one run, indexed like the
/// checked-outputs list: the prologue records domain mismatches and
/// out-of-fragment outputs, the schedule's merge records every obligation
/// in depth-first order.
pub(crate) struct Verdicts {
    ok: Vec<bool>,
    diagnostics: Vec<Vec<Diagnostic>>,
    /// The first out-of-fragment obligation, if any.
    unsupported: Option<BudgetExhausted>,
}

impl Verdicts {
    fn new(outputs: usize) -> Self {
        Verdicts {
            ok: vec![true; outputs],
            diagnostics: (0..outputs).map(|_| Vec::new()).collect(),
            unsupported: None,
        }
    }

    /// Records one obligation of `output`: its verdict and diagnostics.
    pub(crate) fn record(&mut self, output: usize, ok: bool, diagnostics: Vec<Diagnostic>) {
        self.ok[output] &= ok;
        self.diagnostics[output].extend(diagnostics);
    }

    /// Records a failed obligation of `output`.  An error meaning the solver
    /// *cannot answer* (see [`unsupported_fragment`]) withholds that
    /// output's verdict — the run ends inconclusive with a typed reason
    /// while every other output's check still runs; any other error is
    /// returned.
    pub(crate) fn withhold(&mut self, output: usize, e: CoreError) -> Result<()> {
        let reason = unsupported_fragment(&e).ok_or(e)?;
        self.ok[output] = false;
        self.unsupported.get_or_insert(reason);
        Ok(())
    }
}

/// The traversal state.
///
/// One `Checker` runs the obligations of one schedule lane: the calling
/// thread at `jobs = 1`, one pool worker above, or the coordinator that
/// decomposes obligations for the pool.  It owns the local state (table,
/// coinductive assumptions, stats, diagnostics buffer) while a parallel
/// run's budgets are accounted through the run-wide [`SharedBudget`].
pub(crate) struct Checker<'x> {
    pub(crate) a: &'x Addg,
    pub(crate) b: &'x Addg,
    pub(crate) opts: &'x CheckOptions,
    /// Budgets and cross-query sharing (default context on the one-shot path).
    ctx: &'x CheckContext<'x>,
    /// Content fingerprints of both graphs; they key the local tabling
    /// cache, the cross-query shared entries and the term arena's interning
    /// keys.
    pub(crate) fps: Option<&'x (Fingerprints, Fingerprints)>,
    pub(crate) stats: CheckStats,
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// Hash-consed flattened terms plus the matched-pair memo (the
    /// normalization subsystem's state; see [`crate::normalize`]).
    pub(crate) arena: TermArena,
    /// Tabling cache: established equivalences of sub-ADDG pairs, keyed
    /// like the cross-query tiers.
    table: HashSet<SharedTableKey>,
    /// Hash-collision paranoia (debug builds only): the canonical renderings
    /// of the relations behind every table entry.  A lookup whose hashes
    /// match but whose canonical keys differ is a real 64-bit collision and
    /// is counted in [`CheckStats::hash_collisions`].
    #[cfg(debug_assertions)]
    table_shadow: std::collections::HashMap<SharedTableKey, (String, String)>,
    /// Coinduction for recurrences: array pairs currently being proven, with
    /// the element-pair relation assumed equal.
    in_progress: BTreeMap<(String, String), Relation>,
    /// Bumped every time a sub-check is discharged by an `in_progress`
    /// coinductive assumption.  A sub-proof during which this counter moved
    /// is only valid under that assumption and must not be tabled; everything
    /// else (the overwhelming majority) caches freely.
    pub(crate) assumption_uses: u64,
    work: u64,
    pub(crate) exhausted: bool,
    /// Which budget fired when `exhausted` was set (local budget only).
    budget_reason: Option<BudgetExhausted>,
    /// Start of the traversal, for deadline bookkeeping.
    started: Instant,
    /// Run-wide budget shared by every lane of a parallel run (`None` on the
    /// sequential schedule).  Lanes batch their local visit counts into
    /// `work` and flush them here every 64 visits, at which point they also
    /// observe cancellations and limit trips from other lanes.
    shared_budget: Option<&'x SharedBudget>,
    /// Visits already flushed to the shared budget.
    flushed_work: u64,
}

/// The budget of one parallel run, shared by all its workers.
///
/// Work accounting is approximate by design: each worker flushes its local
/// visit count every 64 visits, so the run can overshoot `max_work` by at
/// most `64 × workers` visits before every worker has wound down — the same
/// promptness/overhead trade the sequential poll cadence makes for
/// deadline checks.
#[derive(Debug, Default)]
pub(crate) struct SharedBudget {
    work: std::sync::atomic::AtomicU64,
    exhausted: std::sync::atomic::AtomicBool,
    reason: std::sync::Mutex<Option<BudgetExhausted>>,
    /// Solver overflow events observed by any worker of the run.  Overflow
    /// does not wind the pool down (unlike a budget trip, the remaining
    /// obligations still produce their diagnostics); it only withholds the
    /// final verdict as inconclusive.
    overflow_events: std::sync::atomic::AtomicU64,
}

impl SharedBudget {
    /// Marks the run exhausted; the first caller's reason wins (matching
    /// the sequential checker, where only one budget can fire).  The lock is
    /// recovered from poisoning so a panicked worker cannot wedge budget
    /// reporting for the surviving workers.
    fn trip(&self, reason: BudgetExhausted) {
        use std::sync::atomic::Ordering;
        let mut slot = self
            .reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(reason);
        }
        self.exhausted.store(true, Ordering::Relaxed);
    }

    /// The reason of the first trip, if any.
    pub(crate) fn take_reason(&self) -> Option<BudgetExhausted> {
        self.reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// Folds one thread's solver overflow events into the run-wide count.
    pub(crate) fn note_overflow_events(&self, events: u64) {
        self.overflow_events
            .fetch_add(events, std::sync::atomic::Ordering::Relaxed);
    }

    /// Solver overflow events observed across the workers of the run.
    pub(crate) fn overflow_events(&self) -> u64 {
        self.overflow_events
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A position in one ADDG during the synchronized traversal.
#[derive(Debug, Clone)]
pub(crate) enum Pos {
    /// The elements of an array variable (map range = array elements).
    Array(String),
    /// A node inside a statement's operator tree (map range = the elements
    /// defined by that statement).
    Node(NodeId),
}

/// A coinductive recurrence assumption: an array pair being proven, with
/// the element pairs assumed equal while its definitions are checked.
pub(crate) type Assumption = ((String, String), Relation);

/// One obligation of the synchronized traversal: the sub-computations at
/// `pos_a` / `pos_b` agree for every output element in the (common) domain
/// of `map_a` / `map_b`.  The statement trails that led here (for
/// diagnostics) borrow the parent's until a step extends them.
#[derive(Debug)]
pub(crate) struct Obligation<'t> {
    pub(crate) pos_a: Pos,
    pub(crate) map_a: Relation,
    pub(crate) pos_b: Pos,
    pub(crate) map_b: Relation,
    pub(crate) trail_a: Cow<'t, [String]>,
    pub(crate) trail_b: Cow<'t, [String]>,
}

impl Obligation<'_> {
    /// The root obligation of one output: its array on both sides, under
    /// the identity on its defined elements.
    fn root(output: &str, identity: Relation) -> Obligation<'static> {
        Obligation {
            pos_a: Pos::Array(output.to_owned()),
            map_a: identity.clone(),
            pos_b: Pos::Array(output.to_owned()),
            map_b: identity,
            trail_a: Cow::Owned(Vec::new()),
            trail_b: Cow::Owned(Vec::new()),
        }
    }

    /// A copy that borrows this obligation's trails.
    pub(crate) fn reborrow(&self) -> Obligation<'_> {
        Obligation {
            pos_a: self.pos_a.clone(),
            map_a: self.map_a.clone(),
            pos_b: self.pos_b.clone(),
            map_b: self.map_b.clone(),
            trail_a: Cow::Borrowed(&self.trail_a),
            trail_b: Cow::Borrowed(&self.trail_b),
        }
    }

    /// The same obligation with trails of its own (to outlive its parent).
    pub(crate) fn into_owned(self) -> Obligation<'static> {
        Obligation {
            pos_a: self.pos_a,
            map_a: self.map_a,
            pos_b: self.pos_b,
            map_b: self.map_b,
            trail_a: Cow::Owned(self.trail_a.into_owned()),
            trail_b: Cow::Owned(self.trail_b.into_owned()),
        }
    }

    /// The two array names when both positions are arrays.
    pub(crate) fn array_pair(&self) -> Option<(&str, &str)> {
        match (&self.pos_a, &self.pos_b) {
            (Pos::Array(va), Pos::Array(vb)) => Some((va, vb)),
            _ => None,
        }
    }

    /// This obligation entered at an operator chain: each trail extended by
    /// the statement of its side's chain root, when it has one.
    fn enter(&self, stmt_a: Option<&str>, stmt_b: Option<&str>) -> Obligation<'_> {
        fn extend<'a>(trail: &'a [String], stmt: Option<&str>) -> Cow<'a, [String]> {
            match stmt {
                Some(s) => Cow::Owned(with_stmt(trail, s)),
                None => Cow::Borrowed(trail),
            }
        }
        Obligation {
            pos_a: self.pos_a.clone(),
            map_a: self.map_a.clone(),
            pos_b: self.pos_b.clone(),
            map_b: self.map_b.clone(),
            trail_a: extend(&self.trail_a, stmt_a),
            trail_b: extend(&self.trail_b, stmt_b),
        }
    }
}

/// The untabled front of a traversal step ([`Checker::resolve`]).
pub(crate) enum Resolved<'t> {
    /// An `Access` node was composed through; the traversal continues at
    /// this obligation.
    Composed(Obligation<'t>),
    /// A declared intermediate correspondence (focused checking): compared
    /// like a pair of input leaves and never tabled.
    Focus(Obligation<'t>),
    /// A tabling point: consult the tables, then [`Checker::reduce`].
    Open(Obligation<'t>),
}

/// One reduction step of the traversal ([`Checker::reduce`]).
pub(crate) enum Reduction<'o> {
    /// An intermediate (or output) array reduced definition by definition:
    /// `(statement, child)` per definition the mapping reaches, in order,
    /// with the recurrence assumption installed around them.
    Definitions {
        array: &'o str,
        children: Vec<(&'o str, Obligation<'o>)>,
        assume: Option<Assumption>,
    },
    /// Two operators of the same kind and arity: operands paired by position.
    Operands(Vec<Obligation<'o>>),
    /// An algebraic chain: flatten both sides into `family` and match.
    Algebraic {
        family: OperatorKind,
        chain: Obligation<'o>,
    },
    /// Both sides reached input arrays: compare the output-input mappings.
    Paths,
    /// Settled without further work (equal constants, a coinductive
    /// recurrence assumption).
    Holds,
    /// Refuted structurally, with the diagnostic saying why.
    Refuted(Box<Diagnostic>),
}

impl<'x> Checker<'x> {
    /// A fresh traversal state (the sequential run, or one lane of a
    /// parallel run when `shared_budget` is present).
    pub(crate) fn new(
        a: &'x Addg,
        b: &'x Addg,
        opts: &'x CheckOptions,
        ctx: &'x CheckContext<'x>,
        fps: Option<&'x (Fingerprints, Fingerprints)>,
        shared_budget: Option<&'x SharedBudget>,
    ) -> Self {
        Checker {
            a,
            b,
            opts,
            ctx,
            fps,
            stats: CheckStats::default(),
            diagnostics: Vec::new(),
            arena: TermArena::default(),
            table: HashSet::new(),
            #[cfg(debug_assertions)]
            table_shadow: std::collections::HashMap::new(),
            in_progress: BTreeMap::new(),
            assumption_uses: 0,
            work: 0,
            exhausted: false,
            budget_reason: None,
            started: Instant::now(),
            shared_budget,
            flushed_work: 0,
        }
    }

    /// Runs one scheduled task: installs the recurrence assumptions the
    /// traversal had in place at the task's position (so the
    /// no-tabling-under-assumption guard keeps working unchanged), runs
    /// `body`, and drains the diagnostics it produced for the merge.
    pub(crate) fn run_task(
        &mut self,
        assumptions: &[Assumption],
        body: impl FnOnce(&mut Self) -> Result<bool>,
    ) -> Result<(bool, Vec<Diagnostic>)> {
        self.in_progress.clear();
        self.in_progress.extend(assumptions.iter().cloned());
        let ok = body(self);
        let diagnostics = std::mem::take(&mut self.diagnostics);
        Ok((ok?, diagnostics))
    }

    /// The lane's accumulated counters and, for a local budget, which
    /// budget fired.
    pub(crate) fn finish(self) -> (CheckStats, Option<BudgetExhausted>) {
        (self.stats, self.budget_reason)
    }
}

/// The outputs one run must check: the focused subset when a focus names
/// outputs, otherwise all common outputs (with extra outputs on the
/// transformed side rejected as incomparable).
fn select_outputs(a: &Addg, b: &Addg, opts: &CheckOptions) -> Result<Vec<String>> {
    let wanted: Vec<String> = match opts.focus.as_ref().filter(|f| !f.outputs.is_empty()) {
        Some(f) => f.outputs.clone(),
        None => a.output_arrays().to_vec(),
    };
    let mut outputs = Vec::new();
    for o in wanted {
        if !a.is_output(&o) {
            return Err(CoreError::Incomparable {
                message: format!("`{o}` is not an output of the original program"),
            });
        }
        if !b.is_output(&o) {
            return Err(CoreError::Incomparable {
                message: format!(
                    "output `{o}` of the original program is not an output of the transformed one"
                ),
            });
        }
        outputs.push(o);
    }
    // Unless focused, the transformed program must not have extra outputs.
    if opts.focus.is_none() {
        for o in b.output_arrays() {
            if !outputs.contains(o) {
                return Err(CoreError::Incomparable {
                    message: format!("transformed program has an extra output `{o}`"),
                });
            }
        }
    }
    Ok(outputs)
}

/// Result of the per-output defined-elements comparison that precedes the
/// traversal of one output.
enum OutputDomains {
    /// Both programs define the same elements; the traversal starts from the
    /// identity relation on this set.
    Match(Set),
    /// The defined-element sets differ; the diagnostic carries their
    /// symmetric difference as the failing domain.
    Mismatch(Box<Diagnostic>),
}

/// Compares the defined-element sets of `output` in both graphs (the first
/// half of the per-output obligation).
fn check_output_domains(a: &Addg, b: &Addg, output: &str) -> Result<OutputDomains> {
    let ea = a
        .defined_elements(output)
        .ok_or_else(|| CoreError::Incomparable {
            message: format!("original program never defines output `{output}`"),
        })?;
    let eb = b
        .defined_elements(output)
        .ok_or_else(|| CoreError::Incomparable {
            message: format!("transformed program never defines output `{output}`"),
        })?;
    if ea.is_equal(&eb)? {
        return Ok(OutputDomains::Match(ea));
    }
    // The failing elements are exactly the symmetric difference of the two
    // defined-element sets.
    // `minimized` additionally gists each surviving conjunct against its
    // siblings' canonical forms, so the rendered failing domain is minimal.
    let failing = ea.subtract(&eb)?.union(&eb.subtract(&ea)?)?.minimized();
    Ok(OutputDomains::Mismatch(Box::new(Diagnostic {
        kind: DiagnosticKind::OutputDomainMismatch,
        output_array: None, // stamped with its output after the run
        original_statements: a
            .definitions(output)
            .iter()
            .map(|d| d.statement.clone())
            .collect(),
        transformed_statements: b
            .definitions(output)
            .iter()
            .map(|d| d.statement.clone())
            .collect(),
        expressions: vec![output.to_owned()],
        original_mapping: Some(ea.to_string()),
        transformed_mapping: Some(eb.to_string()),
        message: format!("the two programs do not define the same elements of `{output}`"),
        failing_domain: Some(failing),
    })))
}

/// Classifies a pipeline error that means the solver *cannot answer*: the
/// obligation needed an Omega operation outside the exactly decidable
/// fragment (inexact existential elimination, out-of-fragment closure).
/// Such an error is a property of the input's constraint systems — huge
/// coefficients the big-int fallback let through the front end — not a
/// malformed query, so [`verify_addgs_with_fps`] downgrades the affected
/// output to a typed inconclusive instead of failing the whole pipeline.
fn unsupported_fragment(e: &CoreError) -> Option<BudgetExhausted> {
    match e {
        CoreError::Omega(arrayeq_omega::OmegaError::InexactElimination { op }) => {
            Some(BudgetExhausted::UnsupportedFragment { op })
        }
        CoreError::Omega(arrayeq_omega::OmegaError::UnsupportedClosure { .. }) => {
            Some(BudgetExhausted::UnsupportedFragment {
                op: "transitive closure",
            })
        }
        _ => None,
    }
}

/// The tabling key of one output's *root obligation*: the whole-output
/// equivalence query `(Array(out), identity, Array(out), identity)` that
/// [`verify_addgs_with`] poses per output.  Presence of this key in a
/// [`crate::BaselineProofs`] store proves the entire output equivalent
/// under the options the baseline was produced with — the basis on which
/// incremental re-verification classifies an output as clean and skips it
/// via [`CheckOptions::assume_clean`].
///
/// Returns `None` when the output's element domains mismatch between the
/// graphs (such an output can never have a proven root entry) or the
/// element-set computation fails.
pub fn output_root_key(
    original: &Addg,
    transformed: &Addg,
    fps: (&Fingerprints, &Fingerprints),
    output: &str,
) -> Option<SharedTableKey> {
    let ea = match check_output_domains(original, transformed, output) {
        Ok(OutputDomains::Match(ea)) => ea,
        _ => return None,
    };
    let h = Relation::identity_on(&ea).structural_hash();
    Some((fps.0.array(output), fps.1.array(output), h, h))
}

impl<'x> Checker<'x> {
    pub(crate) fn budget(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        self.work += 1;
        if let Some(shared) = self.shared_budget {
            return self.budget_shared(shared);
        }
        if self.work > self.opts.max_work {
            self.exhausted = true;
            self.budget_reason = Some(BudgetExhausted::WorkLimit {
                max_work: self.opts.max_work,
            });
            return false;
        }
        // Deadline and cancellation are polled on the first visit and every
        // 64 visits after that: prompt enough to wind down in microseconds,
        // cheap enough to vanish against the relation algebra per visit.
        if (self.work == 1 || self.work & 0x3f == 0)
            && (self.ctx.cancel.is_some() || self.ctx.deadline.is_some())
        {
            if self.ctx.cancel.is_some_and(|t| t.is_cancelled()) {
                self.exhausted = true;
                self.budget_reason = Some(BudgetExhausted::Cancelled);
                return false;
            }
            if self.ctx.deadline.is_some_and(|d| Instant::now() >= d) {
                self.exhausted = true;
                self.budget_reason = Some(BudgetExhausted::DeadlineExceeded {
                    elapsed_ms: self.started.elapsed().as_millis() as u64,
                });
                return false;
            }
        }
        true
    }

    /// Budget bookkeeping for a parallel lane: local visit counts are
    /// flushed into the run-wide [`SharedBudget`] every 64 visits (and on
    /// the very first), at which point the lane observes trips from other
    /// lanes, checks the combined work limit, and polls
    /// cancellation/deadline exactly like the sequential path.
    fn budget_shared(&mut self, shared: &SharedBudget) -> bool {
        use std::sync::atomic::Ordering;
        // Flush every 64 visits — tightened to the budget itself when the
        // work limit is smaller than one batch, so a tiny `max_work` still
        // trips promptly instead of hiding inside unflushed batches.
        let due = if self.work == 1 {
            true
        } else if self.opts.max_work >= 64 {
            self.work & 0x3f == 0
        } else {
            self.work.is_multiple_of(self.opts.max_work.max(1))
        };
        if !due {
            return true;
        }
        let delta = self.work - self.flushed_work;
        self.flushed_work = self.work;
        let total = shared.work.fetch_add(delta, Ordering::Relaxed) + delta;
        if shared.exhausted.load(Ordering::Relaxed) {
            self.exhausted = true;
            return false;
        }
        if total > self.opts.max_work {
            self.exhausted = true;
            shared.trip(BudgetExhausted::WorkLimit {
                max_work: self.opts.max_work,
            });
            return false;
        }
        if self.ctx.cancel.is_some_and(|t| t.is_cancelled()) {
            self.exhausted = true;
            shared.trip(BudgetExhausted::Cancelled);
            return false;
        }
        if self.ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            self.exhausted = true;
            shared.trip(BudgetExhausted::DeadlineExceeded {
                elapsed_ms: self.started.elapsed().as_millis() as u64,
            });
            return false;
        }
        true
    }

    /// The core synchronized traversal: proves `ob` by resolving accesses,
    /// consulting the tables, and recursing over the reduction's children.
    pub(crate) fn check(&mut self, ob: Obligation<'_>) -> Result<bool> {
        if !self.budget() {
            return Ok(false);
        }
        if ob.map_a.is_empty() {
            return Ok(true); // nothing left to account for on this branch
        }
        let ob = match self.resolve(ob)? {
            Resolved::Composed(child) => return self.check(child),
            Resolved::Focus(ob) => return self.compare_leaf_mappings(&ob),
            Resolved::Open(ob) => ob,
        };

        // Baseline consult (incremental re-verification): proven entries
        // carried over from an earlier run discharge the sub-traversal
        // before either tabling level.  Baselines hold only positive,
        // assumption-free sub-proofs (the exporter snapshots a shared table,
        // which the publish guard below feeds), so a hit returns exactly
        // what the traversal would re-derive and failures always re-derive
        // their diagnostics in full.
        let key = self.table_key(&ob);
        if let Some(k) = &key {
            if self.ctx.baseline.is_some_and(|b| b.contains(k)) {
                self.stats.baseline_hits += 1;
                arrayeq_trace::discharge("baseline");
                return Ok(true);
            }
            self.stats.table_lookups += 1;
            if self.table.contains(k) {
                self.stats.table_hits += 1;
                arrayeq_trace::discharge("local_table");
                #[cfg(debug_assertions)]
                self.check_for_hash_collision(k, &ob);
                return Ok(true);
            }
            // Cross-query shared table (engine sessions only): consulted
            // after a local miss, so an entry published by any earlier query
            // — same pair re-checked after an edit, or a perturbed variant
            // sharing this sub-computation — discharges the whole
            // sub-traversal here.
            if let Some(shared) = self.ctx.shared_table {
                self.stats.shared_table_lookups += 1;
                if let Some((true, provenance)) = shared.get_with_provenance(k) {
                    self.stats.shared_table_hits += 1;
                    if provenance == TableProvenance::Store {
                        self.stats.store_hits += 1;
                        arrayeq_trace::discharge("store");
                    } else {
                        arrayeq_trace::discharge("shared_table");
                    }
                    return Ok(true);
                }
            }
        }

        #[cfg(debug_assertions)]
        let shadow = key
            .is_some()
            .then(|| (ob.map_a.canonical_key(), ob.map_b.canonical_key()));
        let assumption_uses_before = self.assumption_uses;
        let result = self.check_reduced(&ob)?;

        // Only successful sub-proofs are reused; failures keep their
        // diagnostics specific to the path that found them.  A proof that
        // leaned on a coinductive recurrence assumption is only valid under
        // that assumption and must not be replayed outside it, so it is not
        // inserted either.
        if let Some(k) = key {
            if result && self.assumption_uses == assumption_uses_before {
                #[cfg(debug_assertions)]
                if let Some(v) = shadow {
                    self.table_shadow.insert(k, v);
                }
                self.table.insert(k);
                self.stats.table_entries += 1;
                // Publish assumption-free sub-proofs for later queries.
                if let Some(shared) = self.ctx.shared_table {
                    shared.put(k, true);
                    self.stats.shared_table_inserts += 1;
                }
            }
        }
        Ok(result)
    }

    /// Proves an obligation below its tabling point: one reduction step,
    /// then the children in depth-first order.
    fn check_reduced(&mut self, ob: &Obligation<'_>) -> Result<bool> {
        match self.reduce(ob)? {
            Reduction::Definitions {
                array,
                children,
                assume,
            } => {
                let key = assume.map(|(key, pairs)| {
                    self.in_progress.insert(key.clone(), pairs);
                    key
                });
                let mut ok = true;
                for (statement, child) in children {
                    let _span = arrayeq_trace::span_with("definition", || {
                        vec![
                            arrayeq_trace::s("array", array.to_owned()),
                            arrayeq_trace::s("statement", statement.to_owned()),
                        ]
                    });
                    ok &= self.check(child)?;
                }
                if let Some(k) = key {
                    self.in_progress.remove(&k);
                }
                Ok(ok)
            }
            Reduction::Operands(children) => {
                let mut ok = true;
                for child in children {
                    ok &= self.check(child)?;
                }
                Ok(ok)
            }
            Reduction::Algebraic { family, chain } => self.check_algebraic(&family, &chain),
            Reduction::Paths => self.compare_leaf_mappings(ob),
            Reduction::Holds => Ok(true),
            Reduction::Refuted(diagnostic) => {
                self.diagnostics.push(*diagnostic);
                Ok(false)
            }
        }
    }

    /// The tabling key of an obligation, shared by every tier (baseline,
    /// local table, cross-query table): the content fingerprints of both
    /// positions plus the rename-canonical structural hashes of both
    /// mappings, so structurally identical sub-proofs — same computation at
    /// a different statement, same mapping written over differently-ordered
    /// iterators — share one entry.  `None` with tabling disabled.
    fn table_key(&self, ob: &Obligation<'_>) -> Option<SharedTableKey> {
        if !self.opts.tabling {
            return None;
        }
        let (fa, fb) = self.fps?;
        let pos = |f: &Fingerprints, p: &Pos| match p {
            Pos::Node(n) => f.node(*n),
            Pos::Array(v) => f.array(v),
        };
        Some((
            pos(fa, &ob.pos_a),
            pos(fb, &ob.pos_b),
            ob.map_a.structural_hash(),
            ob.map_b.structural_hash(),
        ))
    }

    /// Debug-build cross-check: a table hit whose canonical renderings differ
    /// from the stored ones means two distinct relations collided on the same
    /// 64-bit structural hash.
    #[cfg(debug_assertions)]
    fn check_for_hash_collision(&mut self, key: &SharedTableKey, ob: &Obligation<'_>) {
        if let Some((ka, kb)) = self.table_shadow.get(key) {
            if *ka != ob.map_a.canonical_key() || *kb != ob.map_b.canonical_key() {
                self.stats.hash_collisions += 1;
                debug_assert!(
                    false,
                    "structural_hash collision in the tabling cache: {key:?}"
                );
            }
        }
    }

    /// Composes an output-current mapping with an `Access` node's
    /// dependency mapping (the paper's look-through into the accessed
    /// array), timed as the `compose` phase.
    pub(crate) fn compose(&mut self, map: &Relation, mapping: &Relation) -> Result<Relation> {
        self.stats.compositions += 1;
        let _span = arrayeq_trace::span("compose");
        let t0 = arrayeq_trace::metrics_timer();
        let composed = map.compose(mapping)?.simplified(true);
        arrayeq_trace::record_elapsed(arrayeq_trace::Metric::Composition, t0);
        Ok(composed)
    }

    /// The untabled front of a traversal step: resolves an `Access` node on
    /// either side (original side first) by composing the output-current
    /// mapping with the dependency mapping — the paper's intermediate
    /// variable reduction then happens when the resulting array is looked
    /// through — and recognises declared intermediate correspondences.
    pub(crate) fn resolve<'t>(&mut self, mut ob: Obligation<'t>) -> Result<Resolved<'t>> {
        let (a, b) = (self.a, self.b);
        if self.compose_access(a, &mut ob.pos_a, &mut ob.map_a, &mut ob.trail_a)?
            || self.compose_access(b, &mut ob.pos_b, &mut ob.map_b, &mut ob.trail_b)?
        {
            return Ok(Resolved::Composed(ob));
        }
        let focused = match (&self.opts.focus, ob.array_pair()) {
            (Some(focus), Some((va, vb))) => focus
                .intermediate_pairs
                .iter()
                .any(|(x, y)| x == va && y == vb),
            _ => false,
        };
        Ok(if focused {
            Resolved::Focus(ob)
        } else {
            Resolved::Open(ob)
        })
    }

    /// Composes through the `Access` node at `pos`, if it is one, moving
    /// the position to the accessed array.
    fn compose_access(
        &mut self,
        g: &Addg,
        pos: &mut Pos,
        map: &mut Relation,
        trail: &mut Cow<'_, [String]>,
    ) -> Result<bool> {
        let Pos::Node(n) = pos else { return Ok(false) };
        let Node::Access {
            array,
            mapping,
            statement,
            ..
        } = g.node(*n)
        else {
            return Ok(false);
        };
        *map = self.compose(map, mapping)?;
        *pos = Pos::Array(array.clone());
        trail.to_mut().push(statement.clone());
        Ok(true)
    }

    /// One reduction step of the traversal at a resolved tabling point —
    /// the single source of the reduction rules, run by the sequential
    /// traversal and by the parallel decomposer alike.  Returns the child
    /// obligations in depth-first order, or what proves the position whole.
    pub(crate) fn reduce<'o>(&mut self, ob: &'o Obligation<'_>) -> Result<Reduction<'o>>
    where
        'x: 'o,
    {
        let (a, b) = (self.a, self.b);
        match (&ob.pos_a, &ob.pos_b) {
            (Pos::Array(va), Pos::Array(vb)) => match (a.is_input(va), b.is_input(vb)) {
                (true, true) => Ok(Reduction::Paths),
                (true, false) => self.definitions(false, vb, ob, None),
                (false, _) => {
                    // Coinduction: under an assumption for this very pair,
                    // element pairs inside the assumed relation hold.
                    // Outside it, reduce (bounded because def-use order is
                    // well-founded) with the assumption re-installed.
                    let pairs = ob.map_a.inverse().compose(&ob.map_b)?;
                    let key = (va.clone(), vb.clone());
                    if let Some(assumed) = self.in_progress.get(&key) {
                        self.stats.mapping_equalities += 1;
                        if pairs.is_subset(assumed)? {
                            self.assumption_uses += 1;
                            arrayeq_trace::discharge("coinduction");
                            return Ok(Reduction::Holds);
                        }
                    }
                    self.definitions(true, va, ob, Some((key, pairs)))
                }
            },
            // One side still inside an operator tree, the other at an array.
            (Pos::Array(va), Pos::Node(nb)) if a.is_input(va) => {
                Ok(self.against_input(true, va, *nb, ob))
            }
            (Pos::Array(va), Pos::Node(_)) => self.definitions(true, va, ob, None),
            (Pos::Node(na), Pos::Array(vb)) if b.is_input(vb) => {
                Ok(self.against_input(false, vb, *na, ob))
            }
            (Pos::Node(_), Pos::Array(vb)) => self.definitions(false, vb, ob, None),
            // Both sides inside operator trees.
            (Pos::Node(na), Pos::Node(nb)) => Ok(self.reduce_nodes(*na, *nb, ob)),
        }
    }

    /// Reduces the array on one side definition by definition: one child
    /// per definition whose elements that side's mapping reaches, with the
    /// other side's mapping restricted to the same output elements.
    fn definitions<'o>(
        &self,
        original_side: bool,
        array: &'o str,
        ob: &'o Obligation<'_>,
        assume: Option<Assumption>,
    ) -> Result<Reduction<'o>>
    where
        'x: 'o,
    {
        let (g, map, other) = if original_side {
            (self.a, &ob.map_a, &ob.map_b)
        } else {
            (self.b, &ob.map_b, &ob.map_a)
        };
        let mut children = Vec::new();
        for def in g.definitions(array) {
            let sub = map.restrict_range(&def.elements)?.simplified(true);
            if sub.is_empty() {
                continue;
            }
            let sub_other = other.restrict_domain(&sub.domain())?.simplified(true);
            let mut trail = if original_side {
                ob.trail_a.to_vec()
            } else {
                ob.trail_b.to_vec()
            };
            trail.push(def.statement.clone());
            let child = if original_side {
                Obligation {
                    pos_a: Pos::Node(def.root),
                    map_a: sub,
                    pos_b: ob.pos_b.clone(),
                    map_b: sub_other,
                    trail_a: Cow::Owned(trail),
                    trail_b: Cow::Borrowed(&ob.trail_b),
                }
            } else {
                Obligation {
                    pos_a: ob.pos_a.clone(),
                    map_a: sub_other,
                    pos_b: Pos::Node(def.root),
                    map_b: sub,
                    trail_a: Cow::Borrowed(&ob.trail_a),
                    trail_b: Cow::Owned(trail),
                }
            };
            children.push((def.statement.as_str(), child));
        }
        Ok(Reduction::Definitions {
            array,
            children,
            assume,
        })
    }

    /// An input array on one side against an operator node on the other.
    /// The leaf reads as the single term of a chain, so an operator side
    /// that normalises (`X + 0`, `X * 1`, `-(-X)`) gets the algebraic
    /// treatment before this is declared a mismatch.
    fn against_input<'o>(
        &self,
        input_is_original: bool,
        input: &str,
        node: NodeId,
        ob: &'o Obligation<'_>,
    ) -> Reduction<'o> {
        let g = if input_is_original { self.b } else { self.a };
        if let Node::Operator {
            kind, statement, ..
        } = g.node(node)
        {
            if let Some(family) =
                normalize::family_against_leaf(kind, &self.opts.operators, self.opts.method)
            {
                let chain = if input_is_original {
                    ob.enter(None, Some(statement))
                } else {
                    ob.enter(Some(statement), None)
                };
                return Reduction::Algebraic { family, chain };
            }
        }
        let (orig_map, trans_map) = (&ob.map_a, &ob.map_b);
        let node_text = describe_node(g, node);
        Reduction::Refuted(Box::new(Diagnostic {
            kind: DiagnosticKind::OperatorMismatch,
            output_array: None,
            original_statements: ob.trail_a.to_vec(),
            transformed_statements: ob.trail_b.to_vec(),
            expressions: vec![input.to_owned(), node_text],
            original_mapping: Some(orig_map.to_string()),
            transformed_mapping: Some(trans_map.to_string()),
            message: format!(
                "one path reached input `{input}` while the corresponding path is still applying operators"
            ),
            failing_domain: None,
        }))
    }

    /// Both positions are operator/constant nodes: constants compare,
    /// chains of a shared family go algebraic, same-kind operators pair
    /// their operands by position, and anything else is a mismatch.
    fn reduce_nodes<'o>(&self, na: NodeId, nb: NodeId, ob: &'o Obligation<'_>) -> Reduction<'o> {
        let (ga, gb) = (self.a, self.b);
        let (ops, method) = (&self.opts.operators, self.opts.method);
        let mismatch = |kind, expressions, mappings: bool, message| {
            Reduction::Refuted(Box::new(Diagnostic {
                kind,
                output_array: None,
                original_statements: ob.trail_a.to_vec(),
                transformed_statements: ob.trail_b.to_vec(),
                expressions,
                original_mapping: mappings.then(|| ob.map_a.to_string()),
                transformed_mapping: mappings.then(|| ob.map_b.to_string()),
                message,
                failing_domain: None,
            }))
        };
        match (ga.node(na), gb.node(nb)) {
            (Node::Const { value: va, .. }, Node::Const { value: vb, .. }) => {
                if va == vb {
                    Reduction::Holds
                } else {
                    mismatch(
                        DiagnosticKind::OperatorMismatch,
                        vec![va.to_string(), vb.to_string()],
                        true,
                        format!("constants differ: {va} vs {vb}"),
                    )
                }
            }
            (
                Node::Operator {
                    kind: ka,
                    operands: oa,
                    statement: sa,
                },
                Node::Operator {
                    kind: kb,
                    operands: ob_ops,
                    statement: sb,
                },
            ) => {
                // The normalization subsystem decides whether the two roots
                // share a chain family (`+`/`-`/negation fold together, `*`
                // against `+` reads additively through distribution, …).
                if let Some(family) = normalize::chain_family(ka, kb, ops, method) {
                    return Reduction::Algebraic {
                        family,
                        chain: ob.enter(Some(sa), Some(sb)),
                    };
                }
                let trail_a = with_stmt(&ob.trail_a, sa);
                let trail_b = with_stmt(&ob.trail_b, sb);
                if ka != kb || oa.len() != ob_ops.len() {
                    let (kind, mappings, message) = if ka != kb {
                        (
                            DiagnosticKind::OperatorMismatch,
                            true,
                            format!("operators differ: `{ka}` vs `{kb}`"),
                        )
                    } else {
                        (
                            DiagnosticKind::Structural,
                            false,
                            format!(
                                "operator `{ka}` has {} operands in the original and {} in the transformed program",
                                oa.len(),
                                ob_ops.len()
                            ),
                        )
                    };
                    return Reduction::Refuted(Box::new(Diagnostic {
                        kind,
                        output_array: None,
                        original_statements: trail_a,
                        transformed_statements: trail_b,
                        expressions: vec![describe_node(ga, na), describe_node(gb, nb)],
                        original_mapping: mappings.then(|| ob.map_a.to_string()),
                        transformed_mapping: mappings.then(|| ob.map_b.to_string()),
                        message,
                        failing_domain: None,
                    }));
                }
                Reduction::Operands(
                    oa.iter()
                        .zip(ob_ops)
                        .map(|(x, y)| Obligation {
                            pos_a: Pos::Node(*x),
                            map_a: ob.map_a.clone(),
                            pos_b: Pos::Node(*y),
                            map_b: ob.map_b.clone(),
                            trail_a: Cow::Owned(trail_a.clone()),
                            trail_b: Cow::Owned(trail_b.clone()),
                        })
                        .collect(),
                )
            }
            // An operator root against a constant: the chain may *fold* to
            // a constant (`x * 0` vs `0`, `2 + 3` vs `5`), so chains whose
            // family folds constants get the algebraic treatment; anything
            // else is the generic computation mismatch below.
            (
                Node::Operator {
                    kind, statement, ..
                },
                Node::Const {
                    statement: sb,
                    value,
                },
            ) => match normalize::family_against_const(kind, ops, method) {
                Some(family) => Reduction::Algebraic {
                    family,
                    chain: ob.enter(Some(statement), Some(sb)),
                },
                None => mismatch(
                    DiagnosticKind::OperatorMismatch,
                    vec![describe_node(ga, na), value.to_string()],
                    true,
                    "corresponding paths apply different computations".into(),
                ),
            },
            (
                Node::Const {
                    statement: sa,
                    value,
                },
                Node::Operator {
                    kind, statement, ..
                },
            ) => match normalize::family_against_const(kind, ops, method) {
                Some(family) => Reduction::Algebraic {
                    family,
                    chain: ob.enter(Some(sa), Some(statement)),
                },
                None => mismatch(
                    DiagnosticKind::OperatorMismatch,
                    vec![value.to_string(), describe_node(gb, nb)],
                    true,
                    "corresponding paths apply different computations".into(),
                ),
            },
            (a_node, b_node) => mismatch(
                DiagnosticKind::OperatorMismatch,
                vec![node_brief(ga, na, a_node), node_brief(gb, nb, b_node)],
                true,
                "corresponding paths apply different computations".into(),
            ),
        }
    }

    /// Both traversals reached input arrays (or a declared intermediate
    /// correspondence): the end of a pair of corresponding paths.  Check
    /// the second part of the sufficient condition — identical output-input
    /// mappings.
    fn compare_leaf_mappings(&mut self, ob: &Obligation<'_>) -> Result<bool> {
        let (va, vb) = ob
            .array_pair()
            .expect("leaf comparisons are between array positions");
        let (map_a, map_b) = (&ob.map_a, &ob.map_b);
        self.stats.paths_compared += 1;
        if va != vb {
            self.diagnostics.push(Diagnostic {
                kind: DiagnosticKind::LeafMismatch,
                output_array: None,
                original_statements: ob.trail_a.to_vec(),
                transformed_statements: ob.trail_b.to_vec(),
                expressions: vec![va.to_owned(), vb.to_owned()],
                original_mapping: Some(map_a.to_string()),
                transformed_mapping: Some(map_b.to_string()),
                message: format!(
                    "corresponding paths end at different input arrays `{va}` and `{vb}`"
                ),
                failing_domain: None,
            });
            return Ok(false);
        }
        self.stats.mapping_equalities += 1;
        if map_a.is_equal(map_b)? {
            return Ok(true);
        }
        let only_a = map_a.subtract(map_b)?;
        let only_b = map_b.subtract(map_a)?;
        // Minimized so the diagnostic renders without redundant constraints.
        let failing = only_a.union(&only_b)?.domain().minimized();
        self.diagnostics.push(Diagnostic {
            kind: DiagnosticKind::MappingMismatch,
            output_array: None,
            original_statements: ob.trail_a.to_vec(),
            transformed_statements: ob.trail_b.to_vec(),
            expressions: vec![va.to_owned()],
            original_mapping: Some(map_a.to_string()),
            transformed_mapping: Some(map_b.to_string()),
            message: format!("paths reading `{va}` have different output-input mappings"),
            failing_domain: Some(failing),
        });
        Ok(false)
    }
}

/// `trail` extended by `stmt`, unless it already ends there.
pub(crate) fn with_stmt(trail: &[String], stmt: &str) -> Vec<String> {
    let mut t = trail.to_vec();
    if t.last().map(|s| s.as_str()) != Some(stmt) {
        t.push(stmt.to_owned());
    }
    t
}

fn node_brief(g: &Addg, id: NodeId, node: &Node) -> String {
    match node {
        Node::Const { value, .. } => value.to_string(),
        _ => describe_node(g, id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CancelToken;
    use arrayeq_lang::corpus::*;

    fn check(a: &str, b: &str, opts: &CheckOptions) -> Report {
        verify_source(a, b, opts).expect("verification pipeline runs")
    }

    #[test]
    fn every_program_is_equivalent_to_itself() {
        for (name, src) in FIG1_ALL.iter().chain(KERNELS.iter()) {
            let r = check(src, src, &CheckOptions::default());
            assert!(r.is_equivalent(), "{name} vs itself: {}", r.summary());
        }
    }

    #[test]
    fn fig1_a_equals_b_with_basic_method() {
        // (b) is obtained from (a) by expression propagation and loop
        // transformations only, which the basic method must handle.
        let r = check(FIG1_A, FIG1_B, &CheckOptions::basic());
        assert!(r.is_equivalent(), "{}", r.summary());
        assert!(r.stats.paths_compared >= 4);
    }

    #[test]
    fn fig1_a_equals_c_needs_the_extended_method() {
        let extended = check(FIG1_A, FIG1_C, &CheckOptions::default());
        assert!(extended.is_equivalent(), "{}", extended.summary());
        assert!(extended.stats.flattenings > 0);
        assert!(extended.stats.matchings > 0);

        // The basic method cannot pair the algebraically shuffled paths.
        let basic = check(FIG1_A, FIG1_C, &CheckOptions::basic());
        assert!(!basic.is_equivalent());
    }

    #[test]
    fn fig1_b_equals_c_and_order_does_not_matter() {
        let r1 = check(FIG1_B, FIG1_C, &CheckOptions::default());
        assert!(r1.is_equivalent(), "{}", r1.summary());
        let r2 = check(FIG1_C, FIG1_B, &CheckOptions::default());
        assert!(r2.is_equivalent(), "{}", r2.summary());
    }

    #[test]
    fn fig1_d_is_rejected_with_diagnostics_pointing_at_v3_and_v1() {
        let r = check(FIG1_A, FIG1_D, &CheckOptions::default());
        assert!(!r.is_equivalent());
        assert!(!r.diagnostics.is_empty());
        // Section 6.1: the failing paths involve statements v3 and v1 of the
        // transformed program; the blame heuristic should surface them.
        let mentioned: Vec<String> = r
            .diagnostics
            .iter()
            .flat_map(|d| d.transformed_statements.clone())
            .collect();
        assert!(
            mentioned.iter().any(|s| s == "v3") || mentioned.iter().any(|s| s == "v1"),
            "diagnostics should mention v3 or v1, got {mentioned:?}\n{}",
            r.summary()
        );
        let blame = r.blame();
        assert!(!blame.is_empty());
    }

    #[test]
    fn direction_is_symmetric_for_the_paper_pairs() {
        assert!(check(FIG1_C, FIG1_A, &CheckOptions::default()).is_equivalent());
        assert!(!check(FIG1_D, FIG1_A, &CheckOptions::default()).is_equivalent());
    }

    #[test]
    fn recurrence_kernel_is_equivalent_to_itself_and_detects_a_broken_base_case() {
        let r = check(
            KERNEL_RECURRENCE,
            KERNEL_RECURRENCE,
            &CheckOptions::default(),
        );
        assert!(r.is_equivalent(), "{}", r.summary());

        let broken = KERNEL_RECURRENCE.replace("Y[0] = X[0] + 0;", "Y[0] = X[0] + 1;");
        let r = check(KERNEL_RECURRENCE, &broken, &CheckOptions::default());
        assert!(!r.is_equivalent());
    }

    #[test]
    fn tabling_can_be_disabled() {
        let with = check(FIG1_A, FIG1_C, &CheckOptions::default());
        let without = check(FIG1_A, FIG1_C, &CheckOptions::default().without_tabling());
        assert!(with.is_equivalent() && without.is_equivalent());
        assert_eq!(without.stats.table_hits, 0);
        assert_eq!(without.stats.table_lookups, 0);
        assert_eq!(without.stats.table_entries, 0);
    }

    #[test]
    fn parallel_jobs_reproduce_sequential_verdicts_and_stable_reports() {
        // Equivalent, inequivalent and recurrence pairs at several worker
        // counts: verdicts identical, stable rendering byte-identical.
        let pairs = [
            (FIG1_A, FIG1_B),
            (FIG1_A, FIG1_C),
            (FIG1_A, FIG1_D),
            (KERNEL_RECURRENCE, KERNEL_RECURRENCE),
        ];
        for (a, b) in pairs {
            let seq = check(a, b, &CheckOptions::default());
            for jobs in [2usize, 8] {
                let par = check(a, b, &CheckOptions::default().with_jobs(jobs));
                assert_eq!(seq.verdict, par.verdict, "jobs={jobs}");
                assert_eq!(
                    seq.render_stable(),
                    par.render_stable(),
                    "stable report differs at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn parallel_budget_exhaustion_is_typed_and_prompt() {
        let opts = CheckOptions {
            max_work: 3,
            jobs: 4,
            ..Default::default()
        };
        let r = check(FIG1_A, FIG1_C, &opts);
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert_eq!(
            r.budget_exhausted,
            Some(BudgetExhausted::WorkLimit { max_work: 3 })
        );

        // A pre-cancelled token stops every worker.
        let token = CancelToken::new();
        token.cancel();
        let ctx = CheckContext {
            cancel: Some(&token),
            ..Default::default()
        };
        let a = parse_program(FIG1_A).unwrap();
        let c = parse_program(FIG1_C).unwrap();
        let r = verify_programs_with(&a, &c, &CheckOptions::default().with_jobs(4), &ctx).unwrap();
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert_eq!(r.budget_exhausted, Some(BudgetExhausted::Cancelled));
    }

    #[test]
    fn parallel_focused_checking_matches_sequential() {
        let focus = Focus {
            outputs: vec!["C".into()],
            intermediate_pairs: vec![("tmp".into(), "tmp".into())],
        };
        let seq = check(
            FIG1_A,
            FIG1_B,
            &CheckOptions::default().with_focus(focus.clone()),
        );
        let par = check(
            FIG1_A,
            FIG1_B,
            &CheckOptions::default().with_focus(focus).with_jobs(4),
        );
        assert!(seq.is_equivalent() && par.is_equivalent());
        assert_eq!(seq.outputs_checked, par.outputs_checked);
        assert_eq!(seq.render_stable(), par.render_stable());
    }

    #[test]
    fn table_stats_are_reported() {
        let r = check(FIG1_A, FIG1_C, &CheckOptions::default());
        assert!(r.stats.table_lookups > 0, "tabling keys were constructed");
        assert!(r.stats.table_entries > 0, "sub-proofs were tabled");
        assert!(r.stats.table_hits <= r.stats.table_lookups);
        let rate = r.stats.table_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert!(r.summary().contains("hit rate"));
    }

    #[test]
    fn focused_checking_restricts_outputs() {
        let focus = Focus {
            outputs: vec!["C".into()],
            intermediate_pairs: vec![("tmp".into(), "tmp".into())],
        };
        let r = check(FIG1_A, FIG1_B, &CheckOptions::default().with_focus(focus));
        assert!(r.is_equivalent(), "{}", r.summary());
        assert_eq!(r.outputs_checked, vec!["C".to_string()]);
    }

    #[test]
    fn exhausted_work_budget_is_typed() {
        let opts = CheckOptions {
            max_work: 3,
            ..Default::default()
        };
        let r = check(FIG1_A, FIG1_C, &opts);
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert_eq!(
            r.budget_exhausted,
            Some(BudgetExhausted::WorkLimit { max_work: 3 })
        );
        assert!(r.summary().contains("work limit"));
    }

    #[test]
    fn cancelled_token_yields_inconclusive_immediately() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = CheckContext {
            cancel: Some(&token),
            ..Default::default()
        };
        let a = parse_program(FIG1_A).unwrap();
        let c = parse_program(FIG1_C).unwrap();
        let r = verify_programs_with(&a, &c, &CheckOptions::default(), &ctx).unwrap();
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert_eq!(r.budget_exhausted, Some(BudgetExhausted::Cancelled));
    }

    #[test]
    fn expired_deadline_yields_inconclusive_with_reason() {
        let ctx = CheckContext {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let a = parse_program(FIG1_A).unwrap();
        let c = parse_program(FIG1_C).unwrap();
        let r = verify_programs_with(&a, &c, &CheckOptions::default(), &ctx).unwrap();
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert!(matches!(
            r.budget_exhausted,
            Some(BudgetExhausted::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn shared_table_discharges_repeat_queries() {
        use std::collections::HashMap as Map;
        use std::sync::Mutex;
        #[derive(Default)]
        struct MapTable(Mutex<Map<SharedTableKey, bool>>);
        impl crate::SharedEquivalenceTable for MapTable {
            fn get(&self, key: &SharedTableKey) -> Option<bool> {
                self.0.lock().unwrap().get(key).copied()
            }
            fn put(&self, key: SharedTableKey, established: bool) {
                self.0.lock().unwrap().insert(key, established);
            }
        }
        let table = MapTable::default();
        let ctx = CheckContext {
            shared_table: Some(&table),
            ..Default::default()
        };
        let a = parse_program(FIG1_A).unwrap();
        let c = parse_program(FIG1_C).unwrap();
        let first = verify_programs_with(&a, &c, &CheckOptions::default(), &ctx).unwrap();
        assert!(first.is_equivalent());
        assert!(first.stats.shared_table_inserts > 0, "sub-proofs published");
        assert_eq!(first.stats.shared_table_hits, 0, "nothing to reuse yet");
        let second = verify_programs_with(&a, &c, &CheckOptions::default(), &ctx).unwrap();
        assert!(second.is_equivalent());
        assert!(
            second.stats.shared_table_hits > 0,
            "re-check reuses published sub-proofs: {:?}",
            second.stats
        );
        assert!(second.stats.combined_hit_rate() > first.stats.combined_hit_rate());
        // The one-shot path never touches a shared table.
        let lone = check(FIG1_A, FIG1_C, &CheckOptions::default());
        assert_eq!(lone.stats.shared_table_lookups, 0);
    }

    #[test]
    fn baseline_proofs_discharge_and_cone_skips_clean_outputs() {
        use std::collections::HashMap as Map;
        use std::sync::Mutex;
        #[derive(Default)]
        struct MapTable(Mutex<Map<SharedTableKey, bool>>);
        impl crate::SharedEquivalenceTable for MapTable {
            fn get(&self, key: &SharedTableKey) -> Option<bool> {
                self.0.lock().unwrap().get(key).copied()
            }
            fn put(&self, key: SharedTableKey, established: bool) {
                self.0.lock().unwrap().insert(key, established);
            }
        }
        // Producing run: publish sub-proofs into a shared table, then turn
        // its contents into a baseline for a fresh, table-free run.
        let table = MapTable::default();
        let ctx = CheckContext {
            shared_table: Some(&table),
            ..Default::default()
        };
        let a = parse_program(FIG1_A).unwrap();
        let c = parse_program(FIG1_C).unwrap();
        let scratch = verify_programs_with(&a, &c, &CheckOptions::default(), &ctx).unwrap();
        assert!(scratch.is_equivalent());
        assert!(
            !scratch.output_fingerprints.is_empty(),
            "fingerprinted runs record per-output fingerprints"
        );
        let baseline = crate::BaselineProofs::from_entries(
            table.0.lock().unwrap().keys().copied().collect::<Vec<_>>(),
        );
        assert!(!baseline.is_empty());

        // Baseline consult alone: every sub-proof replays, verdict and
        // stable rendering identical.
        let ctx2 = CheckContext {
            baseline: Some(&baseline),
            ..Default::default()
        };
        let incremental = verify_programs_with(&a, &c, &CheckOptions::default(), &ctx2).unwrap();
        assert!(
            incremental.stats.baseline_hits > 0,
            "{:?}",
            incremental.stats
        );
        assert_eq!(incremental.render_stable(), scratch.render_stable());

        // Cone focus on top: the (only) output is proven clean by its root
        // key, so the traversal skips it outright — zero path comparisons —
        // while the report still speaks about it.
        let g1 = extract(&a).unwrap();
        let g2 = extract(&c).unwrap();
        let fpa = fingerprints(&g1);
        let fpb = fingerprints(&g2);
        let root = output_root_key(&g1, &g2, (&fpa, &fpb), "C").unwrap();
        assert!(baseline.contains(&root), "root obligation was published");
        let opts = CheckOptions::default().with_assume_clean(vec!["C".into()]);
        let skipped = verify_programs_with(&a, &c, &opts, &ctx2).unwrap();
        assert_eq!(skipped.stats.paths_compared, 0);
        assert_eq!(skipped.stats.cone_positions, 0, "nothing left in the cone");
        assert_eq!(skipped.render_stable(), scratch.render_stable());
        // ...and identically on the parallel path.
        let par = verify_programs_with(&a, &c, &opts.clone().with_jobs(2), &ctx2).unwrap();
        assert_eq!(par.render_stable(), scratch.render_stable());
    }

    #[test]
    fn incomparable_interfaces_are_an_error() {
        let other = r#"
void foo(int A[], int B[], int D[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     D[k] = A[k] + B[k];
}
"#;
        let err = verify_source(FIG1_A, other, &CheckOptions::default());
        assert!(matches!(err, Err(CoreError::Incomparable { .. })));
    }

    #[test]
    fn swapped_operands_of_a_commutative_operator_are_equivalent() {
        let p1 = r#"
#define N 32
void f(int A[], int B[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     C[k] = A[k] * B[2*k];
}
"#;
        let p2 = r#"
#define N 32
void f(int A[], int B[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
t1:     C[k] = B[2*k] * A[k];
}
"#;
        assert!(check(p1, p2, &CheckOptions::default()).is_equivalent());
        assert!(!check(p1, p2, &CheckOptions::basic()).is_equivalent());
        // Subtraction is not commutative: swapping its operands must fail.
        let m1 = p1.replace('*', "-");
        let m2 = p2.replace('*', "-");
        assert!(!check(&m1, &m2, &CheckOptions::default()).is_equivalent());
    }

    #[test]
    fn reassociation_across_statements_is_handled() {
        // tmp = x + y; C = tmp + z   vs   C = x + (y + z)
        let p1 = r#"
#define N 16
void f(int X[], int Y[], int Z[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++)
s1:     tmp[k] = X[k] + Y[k];
    for (k = 0; k < N; k++)
s2:     C[k] = tmp[k] + Z[k];
}
"#;
        let p2 = r#"
#define N 16
void f(int X[], int Y[], int Z[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
t1:     C[k] = X[k] + (Y[k] + Z[k]);
}
"#;
        assert!(check(p1, p2, &CheckOptions::default()).is_equivalent());
        assert!(!check(p1, p2, &CheckOptions::basic()).is_equivalent());
    }

    #[test]
    fn wrong_index_expression_is_reported_with_mappings() {
        let p1 = r#"
#define N 16
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     C[k] = A[2*k] + A[k];
}
"#;
        let p2 = r#"
#define N 16
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
t1:     C[k] = A[2*k] + A[k+1];
}
"#;
        let r = check(p1, p2, &CheckOptions::default());
        assert!(!r.is_equivalent());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagnosticKind::MappingMismatch)
            .expect("a mapping mismatch diagnostic");
        assert!(d.original_mapping.is_some());
        assert!(d.transformed_mapping.is_some());
    }

    #[test]
    fn failing_domains_are_structured_and_stamped_with_their_output() {
        let r = check(FIG1_A, FIG1_D, &CheckOptions::default());
        assert!(!r.is_equivalent());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.failing_domain.is_some())
            .expect("a diagnostic with a failing domain");
        assert_eq!(d.output_array.as_deref(), Some("C"));
        let dom = d.failing_domain.as_ref().unwrap();
        // The domain is directly sampleable — no string reparsing anywhere.
        let (point, params) = dom.sample_point().expect("non-empty failing domain");
        assert!(dom.contains(&point, &params));
        // Fig. 1(d) is wrong on even k below N-1.
        assert_eq!(point[0].rem_euclid(2), 0);
    }
}
