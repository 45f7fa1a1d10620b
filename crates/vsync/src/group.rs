//! Groups and views.
//!
//! §3.2: "The main tool for achieving communication and synchronization in
//! the system is the notion of 'groups', which are essentially equivalent
//! to the ISIS groups." A [`View`] is one installed membership epoch of a
//! group; every member observes the same sequence of views.

use std::collections::BTreeSet;
use std::fmt;

use paso_simnet::NodeId;

/// Name of a group (an element of the paper's `Names`). PASO maps each
/// object class's write group and read group to distinct `GroupId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub u64);

paso_wire::wire_struct!(GroupId { 0 });

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// View epoch within a group; strictly increasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ViewId(pub u64);

paso_wire::wire_struct!(ViewId { 0 });

impl ViewId {
    /// The next view id.
    pub fn next(self) -> ViewId {
        ViewId(self.0 + 1)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One membership epoch of a group.
///
/// # Examples
///
/// ```
/// use paso_vsync::{View, ViewId};
/// use paso_simnet::NodeId;
///
/// let v = View::new(ViewId(0), [NodeId(0), NodeId(2)]);
/// assert_eq!(v.leader(), Some(NodeId(0)));
/// assert!(v.contains(NodeId(2)));
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct View {
    id: ViewId,
    members: BTreeSet<NodeId>,
}

paso_wire::wire_struct!(View { id, members });

impl View {
    /// Creates a view.
    pub fn new(id: ViewId, members: impl IntoIterator<Item = NodeId>) -> Self {
        View {
            id,
            members: members.into_iter().collect(),
        }
    }

    /// An empty initial view.
    pub fn empty() -> Self {
        View::new(ViewId(0), [])
    }

    /// The view id.
    pub fn id(&self) -> ViewId {
        self.id
    }

    /// The members, in ascending node order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Number of members (`|g-name|` in the cost model).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff the view has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Is `node` a member?
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// The group leader: the lowest-id member. The leader collects the
    /// done-empties of a gcast and sends the single response (§3.3), and
    /// acts as the membership manager for joins and leaves.
    pub fn leader(&self) -> Option<NodeId> {
        self.members.iter().next().copied()
    }

    /// The successor view with `node` added.
    pub fn with_member(&self, node: NodeId) -> View {
        let mut members = self.members.clone();
        members.insert(node);
        View {
            id: self.id.next(),
            members,
        }
    }

    /// The successor view with `node` removed.
    pub fn without_member(&self, node: NodeId) -> View {
        let mut members = self.members.clone();
        members.remove(&node);
        View {
            id: self.id.next(),
            members,
        }
    }

    /// Exact wire size in bytes under the binary codec.
    pub fn wire_size(&self) -> usize {
        paso_wire::Wire::encoded_len(self)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_is_lowest_member() {
        let v = View::new(ViewId(3), [NodeId(5), NodeId(1), NodeId(9)]);
        assert_eq!(v.leader(), Some(NodeId(1)));
        assert_eq!(View::empty().leader(), None);
    }

    #[test]
    fn successor_views_bump_id() {
        let v = View::new(ViewId(0), [NodeId(0)]);
        let w = v.with_member(NodeId(1));
        assert_eq!(w.id(), ViewId(1));
        assert_eq!(w.len(), 2);
        let x = w.without_member(NodeId(0));
        assert_eq!(x.id(), ViewId(2));
        assert_eq!(x.leader(), Some(NodeId(1)));
    }

    #[test]
    fn adding_existing_member_still_bumps() {
        let v = View::new(ViewId(0), [NodeId(0)]);
        let w = v.with_member(NodeId(0));
        assert_eq!(w.id(), ViewId(1));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn members_iterate_sorted() {
        let v = View::new(ViewId(0), [NodeId(4), NodeId(2), NodeId(7)]);
        let ms: Vec<NodeId> = v.members().collect();
        assert_eq!(ms, vec![NodeId(2), NodeId(4), NodeId(7)]);
    }

    #[test]
    fn display_and_size() {
        let v = View::new(ViewId(1), [NodeId(0), NodeId(3)]);
        assert_eq!(v.to_string(), "v1{m0,m3}");
        // id varint + member count varint + one varint per member.
        assert_eq!(v.wire_size(), 4);
    }
}
