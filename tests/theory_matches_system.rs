//! The reproduction's keystone: the *abstract* competitive model of §5
//! and the *deployed* system agree — the counter the server runs is the
//! counter the theorems analyze.

use paso::adaptive::{Advice, BasicCounter, Event, Membership, ModelParams, Strategy};
use paso::core::{PasoConfig, SimSystem};
use paso::simnet::SimTime;
use paso::types::{ClassId, FieldMatcher, SearchCriterion, Template, Value};

fn sc_any() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("x")),
        FieldMatcher::Any,
    ]))
}

/// Drive the simulated system with a concrete request pattern and mirror
/// the same pattern through a standalone `BasicCounter`; the server's
/// internal counter must track the model's exactly.
#[test]
fn server_counter_mirrors_the_abstract_counter() {
    let k = 6u64;
    let lambda = 1usize;
    let mut sys = SimSystem::new(PasoConfig::builder(6, lambda).seed(1).k_join(k).build());
    sys.insert(0, vec![Value::symbol("x"), Value::Int(0)]);
    let class = ClassId(2);
    let reader = (0..6u32).find(|m| !sys.server(*m).is_basic(class)).unwrap();
    let writer = (0..6u32).find(|m| sys.server(*m).is_basic(class)).unwrap();

    let mut model = BasicCounter::new(ModelParams::uniform(lambda as u64, k));

    // Phase 1: remote reads until the model says Join.
    let mut joined = false;
    for _ in 0..10 {
        if joined {
            break;
        }
        sys.read(reader, sc_any()).expect("found");
        sys.run_for(SimTime::from_millis(30));
        let advice = model.record_remote_read(0);
        assert_eq!(
            sys.server(reader).counter_value(class),
            Some(model.value()),
            "system counter diverged from the model after a read"
        );
        if advice == Advice::Join {
            joined = true;
        }
    }
    assert!(joined);
    sys.run_for(SimTime::from_millis(100));
    assert!(
        sys.server(reader).store_len(class) > 0,
        "model said join; system must have joined"
    );

    // Phase 2: local reads cap the counter at K.
    for _ in 0..3 {
        sys.read(reader, sc_any()).expect("found");
        sys.run_for(SimTime::from_millis(10));
        model.record_local_read();
        assert_eq!(sys.server(reader).counter_value(class), Some(model.value()));
    }

    // Phase 3: updates drain it until Leave. An applied update is also
    // the server's first measurement of the class: from then on its K is
    // Theorem 3's working value, retuned on the measured bytes before the
    // counter decays, so the model runs at the server's K.
    let mut left = false;
    for i in 0..10 {
        if left {
            break;
        }
        sys.insert(writer, vec![Value::symbol("x"), Value::Int(i + 1)]);
        sys.run_for(SimTime::from_millis(30));
        let server_k = sys.server(reader).counter_k(class).expect("a counter");
        model.set_k(server_k);
        if model.record_update() == Advice::Leave {
            left = true;
        }
        assert_eq!(
            sys.server(reader).counter_value(class),
            Some(model.value()),
            "system counter diverged from the model after an update"
        );
    }
    assert!(left);
    sys.run_for(SimTime::from_millis(100));
    assert_eq!(
        sys.server(reader).store_len(class),
        0,
        "model said leave; system must have erased its replica"
    );
}

/// The system's measured message cost for the read/update pattern tracks
/// the abstract model's work accounting in *shape*: the adaptive run's
/// cost is within the competitive factor of an oracle-chosen static
/// placement.
#[test]
fn system_cost_within_competitive_factor_of_best_static() {
    let k = 4u64;
    let lambda = 1usize;
    let pattern = |reads: usize, updates: usize, rounds: usize| {
        move |sys: &mut SimSystem, reader: u32, writer: u32| {
            for _ in 0..rounds {
                for _ in 0..reads {
                    sys.read(reader, sc_any());
                    sys.run_for(SimTime::from_millis(5));
                }
                for i in 0..updates {
                    sys.insert(writer, vec![Value::symbol("x"), Value::Int(i as i64)]);
                    sys.run_for(SimTime::from_millis(5));
                }
            }
        }
    };
    let run = |adaptive: bool, k: u64, f: &dyn Fn(&mut SimSystem, u32, u32)| {
        let cfg = PasoConfig::builder(6, lambda)
            .seed(2)
            .k_join(k)
            .adaptive(adaptive)
            .build();
        let mut sys = SimSystem::new(cfg);
        sys.insert(0, vec![Value::symbol("x"), Value::Int(0)]);
        let class = ClassId(2);
        let reader = (0..6u32).find(|m| !sys.server(*m).is_basic(class)).unwrap();
        let writer = (0..6u32).find(|m| sys.server(*m).is_basic(class)).unwrap();
        f(&mut sys, reader, writer);
        sys.stats().total_msg_cost
    };
    // Read-dominated and update-dominated mixes: adaptive is never much
    // worse than static, and on the read-heavy mix it is much better.
    let read_heavy = pattern(12, 1, 4);
    let adaptive_cost = run(true, k, &read_heavy);
    let static_cost = run(false, k, &read_heavy);
    assert!(
        adaptive_cost < static_cost,
        "read-heavy: adaptivity must pay off"
    );

    // §5's normalization makes K the *actual* join cost in update units;
    // in the deployed system a join also pays the view change and the
    // Θ(ℓ) state transfer, so K must be calibrated accordingly. With a
    // properly calibrated (larger) K, the occasional read in an
    // update-heavy stream never reaches the threshold and the adaptive
    // run matches the static one.
    let update_heavy = pattern(1, 12, 4);
    let adaptive_cost = run(true, 16, &update_heavy);
    let static_cost = run(false, 16, &update_heavy);
    let bound = 3.0 + lambda as f64 / 16.0;
    assert!(
        adaptive_cost <= bound * static_cost,
        "update-heavy: adaptive {adaptive_cost} vs static {static_cost}"
    );
}

/// The abstract strategies behave sanely as strategies (compile-time
/// re-export surface through the facade).
#[test]
fn facade_reexports_are_usable() {
    let params = ModelParams::uniform(2, 4);
    let mut s = paso::adaptive::BasicStrategy::new(params);
    assert_eq!(s.membership(), Membership::Out);
    s.serve(Event::READ);
    let report = paso::adaptive::measure(&mut s, &[Event::READ; 50], &params);
    assert!(report.within_bound);
}
