//! Versioned WAL record types and their wire encoding.

/// One durable record in a node's write-ahead log.
///
/// `epoch` is the group's history-lineage id (regenerated when a group
/// re-forms empty after total loss); `seq` is the leader-stamped delivery
/// sequence within that lineage. Together they form the `(view, seq)`
/// watermark a rejoining node advertises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A single applied group delivery, replayable through the app layer.
    Delivery {
        /// Group the delivery belongs to.
        group: u64,
        /// History-lineage id at the time of delivery.
        epoch: u64,
        /// Leader-stamped total-order sequence (starts at 1).
        seq: u64,
        /// Originating node of the request.
        origin: u32,
        /// Per-origin request counter (`ReqId.seq`).
        req_seq: u64,
        /// The delivered application payload.
        payload: Vec<u8>,
    },
    /// A full group snapshot superseding all earlier records for `group`.
    ///
    /// `epoch == 0` is a tombstone: the node left the group and its durable
    /// history for it must be forgotten.
    Snapshot {
        /// Group the snapshot belongs to.
        group: u64,
        /// History-lineage id captured by the snapshot (0 = tombstone).
        epoch: u64,
        /// Delivery sequence the snapshot is current through.
        seq: u64,
        /// Encoded group state (vsync `GroupSnapshot` bytes).
        state: Vec<u8>,
    },
}

paso_wire::wire_enum!(WalRecord {
    0 => Delivery { group, epoch, seq, origin, req_seq, payload },
    1 => Snapshot { group, epoch, seq, state },
});

impl WalRecord {
    /// The group this record belongs to.
    pub fn group(&self) -> u64 {
        match self {
            WalRecord::Delivery { group, .. } | WalRecord::Snapshot { group, .. } => *group,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_wire::{decode_exact, encode_to_vec, Wire};

    #[test]
    fn round_trips_and_len_matches() {
        let records = [
            WalRecord::Delivery {
                group: 7,
                epoch: 1,
                seq: 42,
                origin: 3,
                req_seq: 900,
                payload: b"set k v".to_vec(),
            },
            WalRecord::Snapshot {
                group: 7,
                epoch: 1,
                seq: 42,
                state: vec![0xAB; 300],
            },
            WalRecord::Snapshot {
                group: 9,
                epoch: 0,
                seq: 0,
                state: Vec::new(),
            },
        ];
        for rec in &records {
            let bytes = encode_to_vec(rec);
            assert_eq!(bytes.len(), rec.encoded_len());
            assert_eq!(&decode_exact::<WalRecord>(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn rejects_unknown_tag_and_truncation() {
        let rec = WalRecord::Delivery {
            group: 1,
            epoch: 1,
            seq: 1,
            origin: 0,
            req_seq: 0,
            payload: b"x".to_vec(),
        };
        let mut bytes = encode_to_vec(&rec);
        for cut in 0..bytes.len() {
            assert!(decode_exact::<WalRecord>(&bytes[..cut]).is_err());
        }
        bytes[0] = 0x7F;
        assert!(decode_exact::<WalRecord>(&bytes).is_err());
    }
}
