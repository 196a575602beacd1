//! Budget and deadline robustness at the engine surface: typed trips,
//! monotone work under step quotas, and the reusability contract — a
//! tripped plan, engine, and worker pool must behave exactly as if the
//! trip never happened.

use lcl_grids::engine::{
    Budget, CancelToken, ChaosConfig, Engine, FaultPoint, Instance, Job, ProblemSpec, SolveError,
};
use lcl_grids::local::IdAssignment;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A DSL (lcl-lang) 3-colouring: no closed-form tier covers it, so every
/// solve goes through the budget-checked SAT-backed tiers.
fn sat_heavy_spec() -> ProblemSpec {
    ProblemSpec::compile("problem deadline-3c { alphabet { a, b, c } edges differ }")
        .expect("compile DSL problem")
}

fn big_instance() -> Instance {
    Instance::square(16, &IdAssignment::Shuffled { seed: 11 })
}

#[test]
fn one_ms_deadline_on_a_sat_solve_is_typed_and_bounded() {
    let engine = Engine::builder().threads(1).max_synthesis_k(1).build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let inst = big_instance();

    let begun = Instant::now();
    let err = prepared
        .solve_with(&inst, &Budget::deadline(Duration::from_millis(1)))
        .expect_err("a 1ms deadline cannot finish a fresh SAT solve");
    assert!(
        matches!(err, SolveError::DeadlineExceeded { .. }),
        "typed trip expected, got {err:?}"
    );
    // Bounded: cooperative checks fire at hot-loop granularity, so the
    // trip surfaces promptly, not after the full solve.
    assert!(
        begun.elapsed() < Duration::from_secs(10),
        "trip took {:?}",
        begun.elapsed()
    );

    // The engine and plan are fully reusable afterwards: the same plan
    // under a generous budget produces the same labelling a fresh
    // engine does, byte for byte.
    let after_trip = prepared
        .solve_with(&inst, &Budget::unlimited())
        .expect("re-solve");
    let fresh = Engine::builder()
        .threads(1)
        .max_synthesis_k(1)
        .build()
        .solve(&sat_heavy_spec(), &inst)
        .expect("fresh solve");
    assert_eq!(
        after_trip.labels, fresh.labels,
        "a budget trip must leave no trace in later solves"
    );
}

#[test]
fn step_quota_work_is_monotone() {
    // A solve under quota N must never do more work than the same solve
    // under 2N: the shared step counter is the work meter.
    let engine = Engine::builder().threads(1).max_synthesis_k(1).build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let inst = big_instance();

    let small = Budget::steps(400);
    let err = prepared
        .solve_with(&inst, &small)
        .expect_err("400 steps cannot finish a fresh SAT solve");
    assert!(
        matches!(err, SolveError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    let small_used = small.steps_used();

    let large = Budget::steps(800);
    let _ = prepared.solve_with(&inst, &large);
    let large_used = large.steps_used();

    assert!(small_used > 0, "the quota must actually be consumed");
    assert!(
        small_used <= large_used,
        "budget N did more work ({small_used}) than budget 2N ({large_used})"
    );
    // And neither overshoots its quota by more than one check interval's
    // worth of slack per tier (charges are coarse, trips are prompt).
    assert!(
        small_used < 400 * 4,
        "quota 400 overshot wildly: {small_used}"
    );
}

#[test]
fn cancellation_aborts_immediately_with_no_fallback() {
    let engine = Engine::builder().threads(1).max_synthesis_k(1).build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let token = CancelToken::new();
    token.cancel();
    let err = prepared
        .solve_with(&big_instance(), &Budget::unlimited().with_token(token))
        .expect_err("cancelled before dispatch");
    assert!(matches!(err, SolveError::Cancelled), "{err:?}");

    // Cancellation is sticky on the token, not on the plan.
    assert!(prepared
        .solve_with(&big_instance(), &Budget::unlimited())
        .is_ok());
}

#[test]
fn batch_budget_is_joint_and_reports_typed_rows() {
    let engine = Engine::builder().threads(1).max_synthesis_k(1).build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let instances: Vec<Instance> = (0..4)
        .map(|seed| Instance::square(16, &IdAssignment::Shuffled { seed }))
        .collect();

    // A zero deadline is shared by the whole batch: every row trips,
    // none panics, and the report stays fully typed.
    let report = engine.solve_batch_with(&prepared, &instances, &Budget::deadline(Duration::ZERO));
    assert_eq!(report.results().len(), 4);
    for result in report.results() {
        match result {
            Err(SolveError::DeadlineExceeded { .. }) => {}
            other => panic!("expected a typed trip per row, got {other:?}"),
        }
    }

    // The engine's worker pool survived and solves normally afterwards.
    let easy = ProblemSpec::independent_set();
    let prepared = engine.prepare(&easy).expect("prepare");
    let inst = Instance::square(6, &IdAssignment::Sequential);
    assert!(engine
        .solve_batch_with(&prepared, &[inst], &Budget::unlimited())
        .results()[0]
        .is_ok());
}

/// SplitMix64, the seeded operation picker of the history test.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Answers are functions of the input alone: after a seeded run of
/// budget trips, cancellations, tight classifications and an injected
/// solver panic on one engine, its unlimited solves and classifications
/// of both problems equal a fresh engine's — labels, answering tier and
/// class.
#[test]
fn answers_do_not_depend_on_earlier_trips_cancellations_or_panics() {
    let problems = [
        (
            sat_heavy_spec(),
            Instance::square(8, &IdAssignment::Sequential),
        ),
        (
            ProblemSpec::vertex_colouring(3),
            Instance::square(6, &IdAssignment::Shuffled { seed: 5 }),
        ),
    ];
    let fresh = Engine::builder().threads(1).max_synthesis_k(1).build();
    let expected: Vec<_> = problems
        .iter()
        .map(|(spec, inst)| {
            let prepared = fresh.prepare(spec).expect("prepare");
            let labelling = prepared.solve(inst).expect("fresh solve");
            let class = prepared.classify().expect("fresh classify");
            (labelling.labels, labelling.report.solver, class)
        })
        .collect();

    for seed in [1u64, 2, 3, 4, 5] {
        let mut chaos = ChaosConfig::quiet(seed);
        chaos.panic_at = Some(1 + seed % 4);
        let engine = Engine::builder()
            .threads(1)
            .max_synthesis_k(1)
            .chaos_config(chaos)
            .build();
        let mut rng = seed;
        for _ in 0..16 {
            let (spec, inst) = &problems[(next(&mut rng) % 2) as usize];
            let prepared = engine.prepare(spec).expect("prepare");
            let steps = 1 + next(&mut rng) % 200;
            // Every outcome is allowed here, an escaped chaos panic too;
            // only the answers afterwards are checked.
            let _ = catch_unwind(AssertUnwindSafe(|| match next(&mut rng) % 4 {
                0 => {
                    let _ = prepared.solve_with(inst, &Budget::steps(steps));
                }
                1 => {
                    let token = CancelToken::new();
                    token.cancel();
                    let _ = prepared.solve_with(inst, &Budget::unlimited().with_token(token));
                }
                2 => {
                    let _ = prepared.classify_with(&Budget::steps(steps));
                }
                _ => {
                    let job = Job::new(prepared.clone(), inst.clone());
                    let _ = engine.solve_jobs_with(&[job], &Budget::steps(steps));
                }
            }));
        }
        let injected = engine
            .chaos()
            .expect("armed")
            .injected(FaultPoint::SolvePanic);
        assert_eq!(
            injected, 1,
            "seed {seed}: the chaos panic must fire in the run"
        );

        for ((spec, inst), (labels, solver, class)) in problems.iter().zip(&expected) {
            let prepared = engine.prepare(spec).expect("prepare");
            let labelling = prepared
                .solve(inst)
                .unwrap_or_else(|e| panic!("seed {seed}: {} after the run: {e}", spec.name()));
            assert_eq!(&labelling.labels, labels, "seed {seed}: {}", spec.name());
            assert_eq!(
                &labelling.report.solver,
                solver,
                "seed {seed}: {}",
                spec.name()
            );
            assert_eq!(
                &prepared.classify().expect("classify"),
                class,
                "seed {seed}: {}",
                spec.name()
            );
        }
    }
}
