//! The schedule of one verification run: which lane proves which
//! obligation of the traversal, and how their results merge.
//!
//! The traversal's reduction rules live in one place, [`crate::checker`]:
//! [`Checker::resolve`] composes through accesses, [`Checker::reduce`]
//! returns an obligation's children in depth-first order, and
//! [`Checker::flatten_pieces`] splits an algebraic chain into per-piece
//! match obligations.  This module only decides how to run them:
//!
//! 1. **Decompose** (`jobs > 1`, coordinator thread): the root obligations
//!    (one per checked output) are split by calling those same steps on a
//!    coordinator [`Checker`] — never re-implementing them — while there are
//!    fewer tasks than `TASKS_PER_WORKER × jobs`, shallowest first, at most
//!    [`MAX_SPLIT_DEPTH`] steps deep.  A split carries the recurrence
//!    assumption the traversal installs around a definition split into the
//!    children's tasks.  Algebraic chains are split into pieces only while
//!    the pool is starved (fewer tasks than workers).  Children replace their
//!    parent in place, so the task list stays in the traversal's depth-first
//!    order.  At `jobs = 1` nothing is split: the roots are the tasks.
//! 2. **Execute**: at `jobs = 1` the roots run on the calling thread, on one
//!    [`Checker`] with the exact local budget — no spawn, so thread-local
//!    caches and counters behave like a plain recursive run.  Above, a scoped
//!    pool of workers pulls tasks off an atomic cursor (idle workers steal
//!    whatever obligation is next, so one expensive output does not
//!    serialise the run).  Each worker owns a full [`Checker`] and shares
//!    the session state through the [`CheckContext`] — the engine's
//!    cross-query equivalence table and the session feasibility cache,
//!    re-installed in every worker via [`with_feasibility_cache`].  Budgets
//!    and cancellation propagate through one [`SharedBudget`].  Every task
//!    runs under `catch_unwind`: a panic poisons only its own obligation and
//!    quarantines the lane's checker.
//! 3. **Merge**: task verdicts fold per output and task diagnostics
//!    concatenate in task order — the traversal's depth-first order, so
//!    [`crate::Report::render_stable`] is byte-identical at every `jobs` —
//!    and per-lane [`CheckStats`] merge race-free at join.

use crate::checker::{
    Assumption, CheckOptions, Checker, Obligation, Reduction, Resolved, SharedBudget, Verdicts,
};
use crate::context::{BudgetExhausted, CheckContext};
use crate::diagnostics::{Diagnostic, DiagnosticKind};
use crate::normalize::Piece;
use crate::report::CheckStats;
use crate::Result;
use arrayeq_addg::{Addg, Fingerprints, OperatorKind};
use arrayeq_omega::{current_feasibility_cache, with_feasibility_cache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// How many tasks the decomposition aims to produce per worker; a few per
/// worker keep the pool balanced when task costs are skewed without paying
/// decomposition overhead for thousands of micro-tasks.
const TASKS_PER_WORKER: usize = 4;

/// Reduction depth bound for the decomposition: expansion never recurses
/// deeper than this many reduction steps below a root obligation, so the
/// coordinator's sequential phase stays a small fraction of the run.
const MAX_SPLIT_DEPTH: usize = 6;

/// Fault-injection hook for the robustness tests: the lane that picks up
/// the task with this index panics before running it (`usize::MAX` = off).
/// One-shot — the trigger disarms itself when it fires, so a test arms it,
/// runs one verify, and every later run on the process is clean.
static PANIC_ON_TASK: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Arms (or with `None` disarms) the worker panic injection.  Test-only
/// instrumentation for exercising panic isolation; hidden from docs and not
/// part of the supported API.
#[doc(hidden)]
pub fn inject_worker_panic_on_task(task_idx: Option<usize>) {
    PANIC_ON_TASK.store(task_idx.unwrap_or(usize::MAX), Ordering::SeqCst);
}

/// One-shot arming of synthetic solver-overflow injection: the next run
/// that observes the flag records one overflow event on its calling thread
/// and disarms.
static INJECT_OVERFLOW: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Arms one synthetic solver-overflow event in the next verification.
/// Test-only instrumentation for the degradation plumbing (flag harvest →
/// typed inconclusive verdict); genuine overflow behaviour is covered by
/// the omega-level oracle corpus.
#[doc(hidden)]
pub fn inject_arith_overflow_once() {
    INJECT_OVERFLOW.store(true, Ordering::SeqCst);
}

/// Consumes the overflow injection (if armed) by recording a synthetic
/// event on the calling thread.
pub(crate) fn consume_injected_overflow() {
    if INJECT_OVERFLOW.swap(false, Ordering::SeqCst) {
        arrayeq_omega::inject_arith_overflow();
    }
}

/// Best-effort rendering of a panic payload for the poisoned obligation's
/// diagnostic (`panic!` with a literal or a formatted string covers
/// essentially every real panic; anything else is reported opaquely).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Outcome slot of one task: completed (verdict or pipeline error), or
/// poisoned by a panic.
enum TaskSlot {
    Done(Result<(bool, Vec<Diagnostic>)>),
    Panicked(String),
}

/// One scheduled sub-obligation, plus the recurrence assumptions the
/// traversal would have had installed when it reached this position.
struct CheckTask {
    /// Index into the checked-outputs list.
    output: usize,
    /// Recurrence assumptions accumulated along the decomposition path, in
    /// installation order.
    assumptions: Vec<Assumption>,
    /// Reduction steps below the root obligation (bounds the decomposition).
    depth: usize,
    kind: TaskKind,
}

/// What one task proves.
enum TaskKind {
    /// A traversal obligation, proven by [`Checker::check`].
    Traverse(Obligation<'static>),
    /// One region piece of an algebraic chain the coordinator flattened;
    /// the lane runs only its match.
    MatchPiece {
        family: OperatorKind,
        piece: Piece,
        trail_a: Vec<String>,
        trail_b: Vec<String>,
    },
}

impl CheckTask {
    /// A traversal task one reduction step below `self`, with `assume`
    /// (if any) appended to the inherited assumptions.
    fn child(&self, ob: Obligation<'_>, assume: Option<Assumption>) -> CheckTask {
        let mut assumptions = self.assumptions.clone();
        assumptions.extend(assume);
        CheckTask {
            output: self.output,
            assumptions,
            depth: self.depth + 1,
            kind: TaskKind::Traverse(ob.into_owned()),
        }
    }

    fn trails(&self) -> (&[String], &[String]) {
        match &self.kind {
            TaskKind::Traverse(ob) => (&ob.trail_a, &ob.trail_b),
            TaskKind::MatchPiece {
                trail_a, trail_b, ..
            } => (trail_a, trail_b),
        }
    }

    fn run(&self, checker: &mut Checker<'_>) -> Result<(bool, Vec<Diagnostic>)> {
        checker.run_task(&self.assumptions, |c| match &self.kind {
            TaskKind::Traverse(ob) => c.check(ob.reborrow()),
            TaskKind::MatchPiece {
                family,
                piece,
                trail_a,
                trail_b,
            } => c.match_piece(family, piece, trail_a, trail_b),
        })
    }
}

/// What the schedule hands back to [`crate::verify_addgs_with_fps`]
/// besides the per-output verdicts it merged.
pub(crate) struct Run {
    /// Counters of every lane, merged.
    pub(crate) stats: CheckStats,
    /// The first budget that fired, if any.
    pub(crate) budget: Option<BudgetExhausted>,
    /// The first poisoned task's panic message, if any.
    pub(crate) panic: Option<String>,
    /// Solver overflow events on pool workers (the calling thread's own
    /// events are harvested by `verify_addgs_with_fps`).
    pub(crate) overflow_events: u64,
}

/// Proves the root obligations — `(output index, obligation)` in output
/// order — and merges every task's verdict and diagnostics into `verdicts`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    a: &Addg,
    b: &Addg,
    opts: &CheckOptions,
    ctx: &CheckContext<'_>,
    fps: Option<&(Fingerprints, Fingerprints)>,
    outputs: &[String],
    roots: Vec<(usize, Obligation<'static>)>,
    verdicts: &mut Verdicts,
) -> Result<Run> {
    let jobs = opts.effective_jobs();
    let mut tasks: Vec<CheckTask> = roots
        .into_iter()
        .map(|(output, ob)| CheckTask {
            output,
            assumptions: Vec::new(),
            depth: 0,
            kind: TaskKind::Traverse(ob),
        })
        .collect();
    let budget = SharedBudget::default();
    let next = AtomicUsize::new(0);
    let (slots, stats, local_reason) = if jobs <= 1 {
        let slots = empty_slots(tasks.len());
        let (stats, reason) = drain(
            || Checker::new(a, b, opts, ctx, fps, None),
            &tasks,
            &next,
            &slots,
            outputs,
        );
        (slots, stats, reason)
    } else {
        // The coordinator accounts against the run-wide budget: the
        // flattening behind an algebraic split is real Omega work, so
        // `max_work` bounds the whole run.
        let mut coordinator = Checker::new(a, b, opts, ctx, None, Some(&budget));
        expand_tasks(&mut tasks, jobs, &mut coordinator)?;
        let (mut stats, _) = coordinator.finish();
        stats.parallel_tasks = tasks.len() as u64;
        stats.algebraic_piece_tasks = tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::MatchPiece { .. }))
            .count() as u64;
        let slots = empty_slots(tasks.len());
        stats.merge(&run_pool(
            a, b, opts, ctx, fps, outputs, &tasks, &next, &slots, &budget, jobs,
        ));
        (slots, stats, None)
    };

    // Deterministic merge: task order is the traversal's depth-first order
    // (the roots in output order, children spliced in place of their
    // parent), so diagnostics land exactly where the sequential traversal
    // emits them; the first pipeline error in task order wins.
    let mut panic = None;
    for (task, slot) in tasks.iter().zip(slots) {
        let slot = slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("every task slot is filled by a lane");
        match slot {
            TaskSlot::Done(Ok((ok, diagnostics))) => verdicts.record(task.output, ok, diagnostics),
            TaskSlot::Done(Err(e)) => verdicts.withhold(task.output, e)?,
            TaskSlot::Panicked(message) => {
                // The obligation is poisoned, not refuted: it neither proves
                // nor disproves anything, so the verdict is withheld while
                // every other task's result stands.
                let (trail_a, trail_b) = task.trails();
                let diagnostic = Diagnostic {
                    kind: DiagnosticKind::WorkerPanicked,
                    output_array: None,
                    original_statements: trail_a.to_vec(),
                    transformed_statements: trail_b.to_vec(),
                    expressions: Vec::new(),
                    original_mapping: None,
                    transformed_mapping: None,
                    message: format!(
                        "worker task panicked ({message}); this obligation's verdict is \
                         poisoned and the run is inconclusive"
                    ),
                    failing_domain: None,
                };
                verdicts.record(task.output, true, vec![diagnostic]);
                panic.get_or_insert(message);
            }
        }
    }
    Ok(Run {
        stats,
        budget: local_reason.or_else(|| budget.take_reason()),
        panic,
        overflow_events: budget.overflow_events(),
    })
}

fn empty_slots(n: usize) -> Vec<Mutex<Option<TaskSlot>>> {
    (0..n).map(|_| Mutex::new(None)).collect()
}

/// Runs tasks off the shared cursor until the queue is empty, recording
/// each outcome in its slot.  A panicking task poisons only its own slot,
/// and the lane *quarantines* its local state by replacing the whole
/// `Checker` — term arena, tabling cache, coinductive assumptions, buffered
/// diagnostics could all be mid-mutation — keeping only its counters.  The
/// *shared* tables need no rollback: they only ever receive completed
/// verdicts in a single `put`.  Returns the lane's counters and, for a
/// local budget, which budget fired.
fn drain<'x>(
    fresh: impl Fn() -> Checker<'x>,
    tasks: &[CheckTask],
    next: &AtomicUsize,
    slots: &[Mutex<Option<TaskSlot>>],
    outputs: &[String],
) -> (CheckStats, Option<BudgetExhausted>) {
    let mut checker = fresh();
    let mut stats = CheckStats::default();
    let mut reason = None;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(task) = tasks.get(i) else { break };
        let slot = if PANIC_ON_TASK
            .compare_exchange(i, usize::MAX, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            TaskSlot::Panicked("injected worker panic".to_owned())
        } else {
            let _span = arrayeq_trace::span_with("task", || {
                vec![
                    arrayeq_trace::s("output", outputs[task.output].clone()),
                    arrayeq_trace::s(
                        "kind",
                        match &task.kind {
                            TaskKind::Traverse(_) => "traverse",
                            TaskKind::MatchPiece { .. } => "match_piece",
                        },
                    ),
                ]
            });
            match catch_unwind(AssertUnwindSafe(|| task.run(&mut checker))) {
                Ok(done) => TaskSlot::Done(done),
                Err(payload) => {
                    let (poisoned, poisoned_reason) =
                        std::mem::replace(&mut checker, fresh()).finish();
                    stats.merge(&poisoned);
                    reason = reason.or(poisoned_reason);
                    TaskSlot::Panicked(panic_message(payload))
                }
            }
        };
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(slot);
    }
    let (last, last_reason) = checker.finish();
    stats.merge(&last);
    (stats, reason.or(last_reason))
}

/// The worker pool of a parallel run: `jobs` scoped threads drain the task
/// list, each re-installing the caller's session feasibility cache so
/// verdicts computed on one worker are visible to all of them, and each
/// harvesting its own thread's solver counters.
#[allow(clippy::too_many_arguments)]
fn run_pool(
    a: &Addg,
    b: &Addg,
    opts: &CheckOptions,
    ctx: &CheckContext<'_>,
    fps: Option<&(Fingerprints, Fingerprints)>,
    outputs: &[String],
    tasks: &[CheckTask],
    next: &AtomicUsize,
    slots: &[Mutex<Option<TaskSlot>>],
    budget: &SharedBudget,
    jobs: usize,
) -> CheckStats {
    let cache = current_feasibility_cache();
    let merged = Mutex::new(CheckStats::default());
    std::thread::scope(|scope| {
        for w in 0..jobs.min(tasks.len()).max(1) {
            let (cache, merged) = (&cache, &merged);
            scope.spawn(move || {
                // Worker lanes are 1-based; 0 is the coordinator thread.
                arrayeq_trace::set_worker((w + 1) as u32);
                let work = || {
                    let _ = arrayeq_omega::take_arith_overflow();
                    let overflow_base = arrayeq_omega::arith_overflow_events();
                    let subsumed_base = arrayeq_omega::conjuncts_subsumed_events();
                    let fallback_base = arrayeq_omega::bigint_fallback_events();
                    let (mut stats, _) = drain(
                        || Checker::new(a, b, opts, ctx, fps, Some(budget)),
                        tasks,
                        next,
                        slots,
                        outputs,
                    );
                    stats.conjuncts_subsumed +=
                        arrayeq_omega::conjuncts_subsumed_events() - subsumed_base;
                    stats.bigint_fallbacks +=
                        arrayeq_omega::bigint_fallback_events() - fallback_base;
                    if arrayeq_omega::take_arith_overflow() {
                        budget.note_overflow_events(
                            arrayeq_omega::arith_overflow_events() - overflow_base,
                        );
                    }
                    stats
                };
                let stats = match cache {
                    Some(c) => with_feasibility_cache(c.clone(), work),
                    None => work(),
                };
                merged
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .merge(&stats);
            });
        }
    });
    merged.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Splits tasks until at least `jobs × TASKS_PER_WORKER` of them exist (or
/// nothing safely expandable remains).  The shallowest expandable task is
/// split first, so every output contributes obligations before any one
/// chain is split deep; children are spliced in place of their parent,
/// preserving the traversal's depth-first diagnostic order.
fn expand_tasks(
    tasks: &mut Vec<CheckTask>,
    jobs: usize,
    coordinator: &mut Checker<'_>,
) -> Result<()> {
    'grow: while tasks.len() < jobs * TASKS_PER_WORKER {
        // Algebraic piece-splitting only runs while the pool is *starved*
        // (fewer obligations than workers): it is what un-serialises a run
        // dominated by one flatten/match position, but a piece task starts
        // below the obligation's tabling point, so once every worker has
        // work the obligation stays whole and its sub-proof lands in the
        // local and session tables as usual.
        let split_algebraic = tasks.len() < jobs;
        let mut order: Vec<usize> = (0..tasks.len())
            .filter(|&j| tasks[j].depth < MAX_SPLIT_DEPTH)
            .collect();
        order.sort_by_key(|&j| (tasks[j].depth, j));
        for j in order {
            match expand_one(&tasks[j], coordinator, split_algebraic)? {
                Some(children) => {
                    tasks.splice(j..=j, children);
                    continue 'grow;
                }
                // Proven whole (leaf pair, refutation, …): mark so it is
                // never scanned again.
                None => tasks[j].depth = MAX_SPLIT_DEPTH,
            }
        }
        break; // nothing left to split
    }
    Ok(())
}

/// Splits one task by one step of the traversal — [`Checker::resolve`],
/// then [`Checker::reduce`] — or `None` when the position is proven whole
/// by one lane.
fn expand_one(
    task: &CheckTask,
    coordinator: &mut Checker<'_>,
    split_algebraic: bool,
) -> Result<Option<Vec<CheckTask>>> {
    let TaskKind::Traverse(ob) = &task.kind else {
        return Ok(None); // per-piece match tasks are terminal
    };
    let ob = match coordinator.resolve(ob.reborrow())? {
        Resolved::Composed(child) => return Ok(Some(vec![task.child(child, None)])),
        Resolved::Focus(_) => return Ok(None),
        Resolved::Open(ob) => ob,
    };
    // Under an assumption for this very pair the traversal consults it and,
    // on a miss, re-installs it for the subtree only; that scoping has no
    // task form, so the position stays whole.
    if let Some((va, vb)) = ob.array_pair() {
        if task
            .assumptions
            .iter()
            .any(|((x, y), _)| x == va && y == vb)
        {
            return Ok(None);
        }
    }
    Ok(match coordinator.reduce(&ob)? {
        Reduction::Definitions {
            children, assume, ..
        } => Some(
            children
                .into_iter()
                .map(|(_, child)| task.child(child, assume.clone()))
                .collect(),
        ),
        Reduction::Operands(children) => Some(
            children
                .into_iter()
                .map(|child| task.child(child, None))
                .collect(),
        ),
        // Even a single-region chain becomes a piece task: the coordinator's
        // flatten is then reused by the lane (which runs only the match)
        // instead of re-derived.
        Reduction::Algebraic { family, chain } if split_algebraic => {
            let Some(flat) = coordinator.flatten_pieces(&family, &chain)? else {
                return Ok(None);
            };
            let mut pieces = Vec::with_capacity(flat.pieces.len());
            for set in &flat.pieces {
                pieces.push(CheckTask {
                    output: task.output,
                    assumptions: task.assumptions.clone(),
                    // Pieces are atomic: the match itself is one greedy,
                    // stateful obligation.
                    depth: MAX_SPLIT_DEPTH,
                    kind: TaskKind::MatchPiece {
                        family: family.clone(),
                        piece: flat.piece(set)?,
                        trail_a: chain.trail_a.to_vec(),
                        trail_b: chain.trail_b.to_vec(),
                    },
                });
            }
            Some(pieces)
        }
        // Leaf comparisons, settled positions and (with the pool saturated)
        // whole algebraic chains, whose proof is then tabled and published.
        _ => None,
    })
}
