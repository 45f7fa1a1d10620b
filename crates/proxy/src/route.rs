//! Class-affine routing: which server a proxied op is sent to.
//!
//! §4 prices an op issued *at a member* of `wg(C)` at the cheapest row of
//! Figure 1 — a read is a local `mem-read` with no message at all, an
//! update is one gcast — and charges a non-member a relay to the group
//! and back. The gateway therefore sends every op to a member of its
//! class's basic support `B(C)`, which it takes from the same
//! [`Deployment`] the servers were built from.

use std::collections::BTreeMap;
use std::sync::Arc;

use paso_core::{ClientOp, Deployment};
use paso_telemetry::{metrics, CounterId};
use paso_types::{ClassId, SearchCriterion};

/// How [`Router::route`] chose its server; each names the counter it is
/// reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// A write sent to the lowest-id live member of `B(C)` — the vsync
    /// leader, so the gcast is sequenced where it lands.
    Leader,
    /// A read sent to a live member of `B(C)`, which serves it from its
    /// own replica.
    Member,
    /// No member of `B(C)` is up (or the criterion lists no class): any
    /// live server, whose macro expansion finds the group if there is
    /// one.
    Fallback,
}

impl Via {
    pub(crate) fn counter(self) -> CounterId {
        match self {
            Via::Leader => metrics::PROXY_ROUTE_LEADER,
            Via::Member => metrics::PROXY_ROUTE_MEMBER,
            Via::Fallback => metrics::PROXY_ROUTE_FALLBACK,
        }
    }
}

/// One class's row of the table.
struct ClassRoute {
    /// `B(C)`, ascending, so the first live entry leads the current view.
    members: Vec<u32>,
    /// Round-robin cursor over `members` for this class's reads. Per
    /// class and moved by reads only: a cursor shared with other classes
    /// or with writes would let a periodic workload read from one member
    /// alone.
    next: usize,
}

/// The gateway's routing state: the class table, fixed for the life of
/// the deployment, and the soft state beside it.
pub(crate) struct Router {
    deployment: Arc<Deployment>,
    table: BTreeMap<ClassId, ClassRoute>,
    /// Round-robin cursor over the servers for fallbacks.
    next_fallback: usize,
}

impl Router {
    pub(crate) fn new(deployment: Arc<Deployment>) -> Router {
        let table = deployment
            .classifier()
            .classes()
            .into_iter()
            .map(|class| {
                let mut members: Vec<u32> = deployment
                    .basic_support(class)
                    .iter()
                    .map(|n| n.0)
                    .collect();
                members.sort_unstable();
                (class, ClassRoute { members, next: 0 })
            })
            .collect();
        Router {
            deployment,
            table,
            next_fallback: 0,
        }
    }

    /// The class whose group serves a search: the first of `sc-list(sc)`.
    /// The chosen server walks the whole list from there.
    fn search_class(&self, sc: &SearchCriterion) -> Option<ClassId> {
        self.deployment.classifier().sc_list(sc).first().copied()
    }

    /// Picks the server for a newly admitted op. `is_up` is the
    /// membership oracle's view at this instant.
    ///
    /// An insert goes to the leader of `wg(obj-clss(o))`, a `read&del`
    /// to the leader of its search class, a read to the members of its
    /// search class in turn. A retry is not routed again: it goes to the
    /// server the op was first sent to, whose `recent_done` cache is
    /// what turns a repeated insert into a replay.
    pub(crate) fn route(&mut self, op: &ClientOp, is_up: impl Fn(u32) -> bool) -> (u32, Via) {
        let (class, write) = match op {
            ClientOp::Insert { object } => {
                (Some(self.deployment.classifier().classify(object)), true)
            }
            ClientOp::ReadDel { sc, .. } => (self.search_class(sc), true),
            ClientOp::Read { sc, .. } => (self.search_class(sc), false),
        };
        if let Some(row) = class.and_then(|c| self.table.get_mut(&c)) {
            let live = row.members.iter().copied().filter(|&s| is_up(s));
            let picked = if write {
                live.min().map(|s| (s, Via::Leader))
            } else {
                in_turn(live, &mut row.next).map(|s| (s, Via::Member))
            };
            if let Some(picked) = picked {
                return picked;
            }
        }
        let n = self.deployment.config().n as u32;
        let server = in_turn((0..n).filter(|&s| is_up(s)), &mut self.next_fallback)
            // With every server down there is nobody to skip.
            .unwrap_or(0);
        (server, Via::Fallback)
    }
}

/// The element of `items` the cursor points at, stepping the cursor so
/// that successive calls take turns; `None` when there are none.
fn in_turn(mut items: impl Iterator<Item = u32> + Clone, cursor: &mut usize) -> Option<u32> {
    let len = items.clone().count();
    if len == 0 {
        return None;
    }
    *cursor = (*cursor + 1) % len;
    items.nth(*cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_core::{ClassifierKind, PasoConfig, WalMedium};
    use paso_types::{FieldMatcher, ObjectId, PasoObject, ProcessId, Template, Value, ValueType};

    fn classifiers() -> Vec<ClassifierKind> {
        vec![
            ClassifierKind::Arity(4),
            ClassifierKind::FirstField(5),
            ClassifierKind::Signature(vec![
                vec![ValueType::Int],
                vec![ValueType::Symbol, ValueType::Int],
            ]),
        ]
    }

    /// Tuples of several arities, first-field values and signatures, so
    /// that each classifier spreads them over several classes.
    fn objects() -> Vec<PasoObject> {
        (0..40i64)
            .map(|i| {
                let fields = match i % 4 {
                    0 => vec![Value::Int(i)],
                    1 => vec![Value::symbol("k"), Value::Int(i)],
                    2 => vec![Value::Int(i), Value::from("x"), Value::Int(-i)],
                    _ => vec![Value::from(format!("s{i}")), Value::Bool(true)],
                };
                PasoObject::new(ObjectId::new(ProcessId(1), i as u64), fields)
            })
            .collect()
    }

    /// The exact criterion for `o` and one with its first field left
    /// open (which makes `FirstField`'s `sc-list` every class).
    fn criteria(o: &PasoObject) -> [SearchCriterion; 2] {
        let exact = Template::exact(o.fields().to_vec());
        let mut open: Vec<FieldMatcher> = o
            .fields()
            .iter()
            .cloned()
            .map(FieldMatcher::Exact)
            .collect();
        open[0] = FieldMatcher::Any;
        [exact.into(), Template::new(open).into()]
    }

    fn read(sc: &SearchCriterion) -> ClientOp {
        ClientOp::Read {
            sc: sc.clone(),
            blocking: false,
        }
    }

    fn read_del(sc: &SearchCriterion) -> ClientOp {
        ClientOp::ReadDel {
            sc: sc.clone(),
            blocking: false,
        }
    }

    fn deployments() -> impl Iterator<Item = Arc<Deployment>> {
        classifiers().into_iter().flat_map(|kind| {
            [(3, 1), (4, 1), (8, 2)].map(|(n, lambda)| {
                let cfg = PasoConfig::builder(n, lambda)
                    .classifier(kind.clone())
                    .build();
                Arc::new(Deployment::new(cfg, WalMedium::Memory))
            })
        })
    }

    fn basic(d: &Deployment, class: ClassId) -> Vec<u32> {
        d.basic_support(class).iter().map(|n| n.0).collect()
    }

    #[test]
    fn writes_go_to_the_leader_and_reads_to_a_member() {
        for d in deployments() {
            let mut router = Router::new(Arc::clone(&d));
            let mut readers = std::collections::BTreeSet::new();
            for o in objects() {
                let class = d.classifier().classify(&o);
                let leader = basic(&d, class).into_iter().min();
                let insert = ClientOp::Insert { object: o.clone() };
                let (server, via) = router.route(&insert, |_| true);
                assert_eq!((Some(server), via), (leader, Via::Leader), "{o}");
                for sc in criteria(&o) {
                    let first = basic(&d, d.classifier().sc_list(&sc)[0]);
                    let (server, via) = router.route(&read_del(&sc), |_| true);
                    assert_eq!(
                        (Some(server), via),
                        (first.iter().copied().min(), Via::Leader)
                    );
                    let (server, via) = router.route(&read(&sc), |_| true);
                    assert!(first.contains(&server) && via == Via::Member, "{sc}");
                    readers.insert((first, server));
                }
            }
            // Reads take turns: every member of every class read from
            // was sent some.
            for (members, _) in &readers {
                for m in members {
                    assert!(readers.contains(&(members.clone(), *m)), "{m} idle");
                }
            }
        }
    }

    #[test]
    fn a_member_marked_down_is_never_chosen() {
        for d in deployments() {
            let n = d.config().n as u32;
            for down in 0..n {
                let mut router = Router::new(Arc::clone(&d));
                let up = |s: u32| s != down;
                for o in objects() {
                    let class = d.classifier().classify(&o);
                    let leader = basic(&d, class).into_iter().filter(|&s| up(s)).min();
                    let insert = ClientOp::Insert { object: o.clone() };
                    let (server, via) = router.route(&insert, up);
                    // λ ≥ 1: one crash leaves every class a live member,
                    // and the lowest of them leads the post-crash view.
                    assert_eq!((Some(server), via), (leader, Via::Leader));
                    for sc in criteria(&o) {
                        for op in [read(&sc), read_del(&sc)] {
                            let (server, via) = router.route(&op, up);
                            assert_ne!(server, down);
                            assert_ne!(via, Via::Fallback);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn with_all_of_the_basic_support_down_any_live_server_is_chosen() {
        let cfg = PasoConfig::builder(4, 1).build();
        let d = Arc::new(Deployment::new(cfg, WalMedium::Memory));
        let mut router = Router::new(Arc::clone(&d));
        let o = &objects()[1];
        let dead = basic(&d, d.classifier().classify(o));
        let up = |s: u32| !dead.contains(&s);
        let [sc, _] = criteria(o);
        let mut chosen = std::collections::BTreeSet::new();
        for op in [
            ClientOp::Insert { object: o.clone() },
            read(&sc),
            read_del(&sc),
        ] {
            for _ in 0..4 {
                let (server, via) = router.route(&op, up);
                assert!(up(server) && via == Via::Fallback);
                chosen.insert(server);
            }
        }
        assert_eq!(chosen.len(), 4 - dead.len(), "fallbacks take turns");
        // Nobody up: still an answer (the op then times out).
        assert_eq!(router.route(&read(&sc), |_| false).1, Via::Fallback);
    }
}
