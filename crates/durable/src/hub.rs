//! The durability hub: per-node WALs that outlive actor crashes.
//!
//! In both substrates a crash replaces the actor object (`factory(node)`),
//! so anything durable must live *outside* the actor. The hub is that
//! outside: the system (simnet `SimSystem` or live `Cluster`) creates one
//! hub, the node factory captures it, and every (re)built actor gets a
//! [`WalHandle`] to the *same* underlying [`NodeWal`]. Under simulation the
//! medium is in-memory (surviving the simulated crash exactly as a disk
//! would survive a real one); live, `wal_dir` switches to real files.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::medium::{FileMedium, MemMedium};
use crate::wal::{AppendReceipt, DurableConfig, NodeWal, WalRecovery};
use crate::WalRecord;

/// Factory and registry for per-node WALs.
#[derive(Debug)]
pub struct DurabilityHub {
    cfg: DurableConfig,
    dir: Option<PathBuf>,
    nodes: Mutex<BTreeMap<u32, Arc<Mutex<NodeWal>>>>,
}

impl DurabilityHub {
    /// Hub whose WALs live in memory (simulation and tests).
    pub fn new_mem(cfg: DurableConfig) -> Arc<Self> {
        Arc::new(DurabilityHub {
            cfg,
            dir: None,
            nodes: Mutex::new(BTreeMap::new()),
        })
    }

    /// Hub whose WALs are files `node-<id>.wal` under `dir`.
    pub fn new_file(cfg: DurableConfig, dir: PathBuf) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(&dir)?;
        Ok(Arc::new(DurabilityHub {
            cfg,
            dir: Some(dir),
            nodes: Mutex::new(BTreeMap::new()),
        }))
    }

    /// Handle to node `id`'s WAL, creating it on first use. Subsequent calls
    /// (including from a rebuilt post-crash actor) return the same log.
    pub fn handle(&self, id: u32) -> WalHandle {
        let mut nodes = self.nodes.lock().unwrap();
        let wal = nodes.entry(id).or_insert_with(|| {
            let medium: Box<dyn crate::Medium> = match &self.dir {
                Some(dir) => {
                    let path = dir.join(format!("node-{id}.wal"));
                    match FileMedium::open(path) {
                        Ok(m) => Box::new(m),
                        // Unopenable file (permissions, missing dir):
                        // degrade to memory rather than poison the node.
                        Err(_) => Box::new(MemMedium::new()),
                    }
                }
                None => Box::new(MemMedium::new()),
            };
            Arc::new(Mutex::new(NodeWal::new(medium, self.cfg)))
        });
        WalHandle(Arc::clone(wal))
    }

    /// Drops node `id`'s WAL entirely — models losing the disk, not just the
    /// process. The next [`DurabilityHub::handle`] starts an empty log.
    pub fn erase(&self, id: u32) {
        self.nodes.lock().unwrap().remove(&id);
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_file(dir.join(format!("node-{id}.wal")));
        }
    }
}

/// Cloneable accessor to one node's WAL.
#[derive(Debug, Clone)]
pub struct WalHandle(Arc<Mutex<NodeWal>>);

impl WalHandle {
    /// Appends an applied delivery.
    #[allow(clippy::too_many_arguments)]
    pub fn append_delivery(
        &self,
        group: u64,
        epoch: u64,
        seq: u64,
        origin: u32,
        req_seq: u64,
        payload: &[u8],
        now_micros: u64,
    ) -> AppendReceipt {
        self.0.lock().unwrap().append(
            &WalRecord::Delivery {
                group,
                epoch,
                seq,
                origin,
                req_seq,
                payload: payload.to_vec(),
            },
            now_micros,
        )
    }

    /// Appends a full group snapshot (e.g. the state just installed from a
    /// donor), superseding earlier records for the group on recovery.
    pub fn append_snapshot(
        &self,
        group: u64,
        epoch: u64,
        seq: u64,
        state: &[u8],
        now_micros: u64,
    ) -> AppendReceipt {
        self.0.lock().unwrap().append(
            &WalRecord::Snapshot {
                group,
                epoch,
                seq,
                state: state.to_vec(),
            },
            now_micros,
        )
    }

    /// Appends a tombstone: this node left the group, forget its history.
    pub fn append_erase(&self, group: u64, now_micros: u64) -> AppendReceipt {
        self.0.lock().unwrap().append(
            &WalRecord::Snapshot {
                group,
                epoch: 0,
                seq: 0,
                state: Vec::new(),
            },
            now_micros,
        )
    }

    /// Forces batched appends durable; returns fsync cost if one ran.
    pub fn flush(&self, now_micros: u64) -> Option<u64> {
        self.0.lock().unwrap().flush(now_micros)
    }

    /// See [`NodeWal::wants_snapshot`].
    pub fn wants_snapshot(&self) -> bool {
        self.0.lock().unwrap().wants_snapshot()
    }

    /// See [`NodeWal::compact`].
    pub fn compact(
        &self,
        snapshots: &[(u64, u64, u64, Vec<u8>)],
        now_micros: u64,
    ) -> AppendReceipt {
        self.0.lock().unwrap().compact(snapshots, now_micros)
    }

    /// See [`NodeWal::recover`].
    pub fn recover(&self) -> WalRecovery {
        self.0.lock().unwrap().recover()
    }

    /// Current log size in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.0.lock().unwrap().log_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_survives_reissue() {
        let hub = DurabilityHub::new_mem(DurableConfig {
            durability_interval_micros: 0,
            snapshot_every: 0,
        });
        let h1 = hub.handle(3);
        h1.append_delivery(1, 1, 1, 0, 0, b"x", 10);
        // A "rebuilt actor" asks again: same log, history intact.
        let h2 = hub.handle(3);
        let rec = h2.recover();
        assert_eq!(rec.groups[&1].tail.len(), 1);
        // Erase models disk loss.
        hub.erase(3);
        let h3 = hub.handle(3);
        assert!(h3.recover().groups.is_empty());
    }

    #[test]
    fn file_hub_round_trips() {
        let dir = std::env::temp_dir().join(format!("paso-wal-test-{}", std::process::id()));
        let hub = DurabilityHub::new_file(DurableConfig::default(), dir.clone()).unwrap();
        let h = hub.handle(0);
        let r = h.append_delivery(2, 1, 1, 4, 9, b"hello", 0);
        assert!(r.bytes > 0);
        h.flush(10_000);
        drop(hub);
        // A fresh hub over the same dir sees the durable records.
        let hub2 = DurabilityHub::new_file(DurableConfig::default(), dir.clone()).unwrap();
        let rec = hub2.handle(0).recover();
        assert_eq!(rec.groups[&2].tail[0].payload, b"hello");
        hub2.erase(0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
