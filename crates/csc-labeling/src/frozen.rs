//! Read-optimized frozen label storage and the adaptive intersection
//! kernel.
//!
//! [`Labels`] is built for maintenance: per-vertex `Vec`s that grow,
//! shrink, and splice cheaply, all four halves of the bipartite labelling
//! side by side. A cycle query `SCCnt(v)` reads only two of them:
//! `Lout(v_o)` and `Lin(v_i)` (couples `v_i = 2v`, `v_o = 2v + 1` under the
//! bipartite id scheme).
//!
//! [`FrozenLabels`] is the serving-side counterpart. It holds, per couple,
//! one immutable shared slice (`Arc<[LabelEntry]>`): `Lout(v_o)` directly
//! followed by `Lin(v_i)`, plus the split point. The two lists a query
//! intersects share cache lines, and the other half of the labelling is
//! never copied.
//!
//! Because each couple's slice is shared, a
//! [`publish`](FrozenLabels::publish) from the previous snapshot costs a
//! reference-count bump per couple whose query halves did not change,
//! and a copy only for the couples the store marked dirty. A stamp on
//! every published snapshot guards the reuse: only the store's own
//! latest publication may seed the next one, and anything else falls
//! back to building every couple. [`freeze`](FrozenLabels::freeze) is
//! that full build.
//!
//! Both layouts answer queries through the [`LabelStore`] trait, whose
//! default `dist_count` uses [`intersect_adaptive`]. The kernel picks a
//! strategy by list shape:
//!
//! * **galloping** (exponential probe + binary search) when one list is at
//!   least [`GALLOP_SKEW`] times longer than the other — `O(short · log
//!   long)` instead of `O(short + long)`;
//! * **dual-chain branchless merge** when both lists are long: the lists
//!   are split at a pivot rank and the two independent sub-merges run
//!   interleaved in one loop. A single merge is bound by its loop-carried
//!   dependency (load → compare → conditional advance feeds the next
//!   load), so two independent chains nearly double instruction-level
//!   parallelism; measured ~17% faster than the single chain on ~750-entry
//!   lists;
//! * **single branchless merge** for short lists, where the dual split's
//!   fixed costs (pivot search, drain loops) don't pay.
//!
//! All paths are proven equivalent to the reference kernel
//! ([`crate::labels::intersect`]) by the property tests in
//! `tests/frozen_equivalence.rs`.

use crate::entry::LabelEntry;
use crate::labels::{DistCount, LabelSide, Labels, PublicationStamp};
use csc_graph::budget::{BudgetExceeded, OpBudget};
use csc_graph::VertexId;
use std::sync::Arc;

/// Length ratio at which [`intersect_adaptive`] switches from the merge to
/// the galloping strategy.
pub const GALLOP_SKEW: usize = 8;

/// Minimum length of the *shorter* list before the dual-chain merge is
/// worth its fixed costs; below this the single-chain merge runs.
pub const DUAL_CHAIN_MIN: usize = 32;

/// Common read interface over label storage layouts.
///
/// [`Labels`] (mutable, nested) and [`FrozenLabels`] (immutable, flat)
/// implement this identically; anything that only reads labels — query
/// evaluation, snapshots, analytics sweeps — should take a `LabelStore`
/// instead of a concrete layout.
pub trait LabelStore {
    /// Number of vertices covered.
    fn vertex_count(&self) -> usize;

    /// The in-label list of `v`, sorted by hub rank.
    fn in_of(&self, v: VertexId) -> &[LabelEntry];

    /// The out-label list of `v`, sorted by hub rank.
    fn out_of(&self, v: VertexId) -> &[LabelEntry];

    /// The label list of `v` on `side`.
    fn side_of(&self, v: VertexId, side: LabelSide) -> &[LabelEntry] {
        match side {
            LabelSide::In => self.in_of(v),
            LabelSide::Out => self.out_of(v),
        }
    }

    /// Total number of stored label entries.
    fn total_entries(&self) -> usize;

    /// `SPCnt(s, t)`: shortest `s ~> t` distance over any common hub and
    /// the number of such shortest paths (Equations (1)–(2)), evaluated
    /// with the adaptive kernel.
    fn dist_count(&self, s: VertexId, t: VertexId) -> Option<DistCount> {
        intersect_adaptive(self.out_of(s), self.in_of(t))
    }

    /// The shortest `s ~> t` distance via the index, if any.
    fn dist(&self, s: VertexId, t: VertexId) -> Option<u32> {
        self.dist_count(s, t).map(|dc| dc.dist)
    }

    /// [`dist_count`](Self::dist_count) behind a cooperative cancellation
    /// checkpoint, for deadline-bounded sweeps (`girth`, `top_k`, batch
    /// queries) that evaluate many intersections in one operation.
    ///
    /// The checkpoint is *cost-weighted* by the two list lengths and sits
    /// between kernel invocations: a single intersection is the atomic
    /// unit (bounded by the longest label list — microseconds), so the
    /// kernel's inner merge/gallop loops stay branch-free while a sweep's
    /// overshoot past its deadline stays bounded by one intersection.
    fn dist_count_budgeted(
        &self,
        s: VertexId,
        t: VertexId,
        budget: &OpBudget,
    ) -> Result<Option<DistCount>, BudgetExceeded> {
        let (out_s, in_t) = (self.out_of(s), self.in_of(t));
        budget.consume(out_s.len() + in_t.len() + 1)?;
        Ok(intersect_adaptive(out_s, in_t))
    }
}

impl LabelStore for Labels {
    #[inline]
    fn vertex_count(&self) -> usize {
        Labels::vertex_count(self)
    }

    #[inline]
    fn in_of(&self, v: VertexId) -> &[LabelEntry] {
        Labels::in_of(self, v)
    }

    #[inline]
    fn out_of(&self, v: VertexId) -> &[LabelEntry] {
        Labels::out_of(self, v)
    }

    #[inline]
    fn total_entries(&self) -> usize {
        Labels::total_entries(self)
    }
}

/// One couple's query halves in one shared slice: `Lout(v_o)` directly
/// followed by `Lin(v_i)`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Couple {
    halves: Arc<[LabelEntry]>,
    /// Length of the `Lout(v_o)` prefix.
    split: u32,
}

impl Couple {
    /// Copies couple `c`'s query halves out of `labels`.
    fn gather(labels: &Labels, c: u32) -> Self {
        let out = labels.out_of(VertexId(2 * c + 1));
        let inn = labels.in_of(VertexId(2 * c));
        Couple {
            halves: out.iter().chain(inn).copied().collect(),
            split: out.len() as u32,
        }
    }

    /// `(Lout(v_o), Lin(v_i))`.
    #[inline]
    fn halves(&self) -> (&[LabelEntry], &[LabelEntry]) {
        self.halves.split_at(self.split as usize)
    }
}

/// The query halves of a [`Labels`], frozen into one immutable shared
/// slice per couple.
///
/// Couple `v` holds `Lout(v_o)` then `Lin(v_i)` (`v_i = 2v`,
/// `v_o = 2v + 1`); through [`LabelStore`] those two lists read as stored
/// and every other list reads as empty. Snapshots share the slices of
/// couples that did not change between publications, so holding many
/// snapshots costs little more than holding one. Equality compares the
/// lists only, never the publication stamp.
#[derive(Clone, Debug)]
pub struct FrozenLabels {
    couples: Vec<Couple>,
    /// Entries over all couples.
    entries: usize,
    /// `Some` on a publication: the stamp the source store gave it.
    stamp: Option<PublicationStamp>,
}

impl PartialEq for FrozenLabels {
    fn eq(&self, other: &Self) -> bool {
        self.couples == other.couples
    }
}

impl Eq for FrozenLabels {}

impl FrozenLabels {
    /// Freezes the query halves of every couple of `labels`, sharing
    /// nothing. `O(query-half entries + n)`.
    ///
    /// # Panics
    ///
    /// Panics if `labels` covers an odd number of vertices (it is not a
    /// bipartite labelling).
    pub fn freeze(labels: &Labels) -> Self {
        Self::build(labels, None)
    }

    /// Publishes the current query halves of `labels`.
    ///
    /// When `prev` is the latest publication of this very store, every
    /// couple whose query halves did not change since then reuses `prev`'s
    /// slice, and only the dirty couples are copied. Any other `prev` —
    /// `None`, an older publication, one from another store or a clone, a
    /// plain [`freeze`](Self::freeze), or one taken before the store grew
    /// — builds every couple, exactly as `freeze` does. Either way the
    /// store's dirty marks are cleared and the result carries the stamp
    /// that lets it seed the next publication.
    ///
    /// # Panics
    ///
    /// As [`freeze`](Self::freeze).
    pub fn publish(labels: &mut Labels, prev: Option<&FrozenLabels>) -> Self {
        let reuse = prev.filter(|p| {
            p.stamp == Some(labels.publication_stamp())
                && 2 * p.couples.len() == Labels::vertex_count(labels)
        });
        let mut frozen = Self::build(labels, reuse);
        frozen.stamp = Some(labels.end_publication());
        frozen
    }

    /// Takes `reuse`'s slice for every clean couple and copies the rest.
    fn build(labels: &Labels, reuse: Option<&FrozenLabels>) -> Self {
        let n = Labels::vertex_count(labels);
        assert!(
            n.is_multiple_of(2),
            "frozen couples need an even vertex count, got {n}"
        );
        let couples: Vec<Couple> = (0..n / 2)
            .map(|c| match reuse {
                Some(prev) if !labels.is_dirty(c) => prev.couples[c].clone(),
                _ => Couple::gather(labels, c as u32),
            })
            .collect();
        let entries = couples.iter().map(|c| c.halves.len()).sum();
        FrozenLabels {
            couples,
            entries,
            stamp: None,
        }
    }

    /// `(Lout(v_o), Lin(v_i))` of original vertex `v`, or `None` past the
    /// frozen couples.
    #[inline]
    pub fn query_halves(&self, v: VertexId) -> Option<(&[LabelEntry], &[LabelEntry])> {
        self.couples.get(v.index()).map(Couple::halves)
    }

    /// Whether original vertex `v`'s slice is the very same allocation in
    /// `self` and `other`, i.e. one publication reused it from the other.
    pub fn shares_couple(&self, other: &FrozenLabels, v: VertexId) -> bool {
        match (self.couples.get(v.index()), other.couples.get(v.index())) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.halves, &b.halves),
            _ => false,
        }
    }

    /// Fraction of the stored entries no list addresses. Always `0.0`:
    /// every slice holds exactly its couple's query halves.
    pub fn dead_fraction(&self) -> f64 {
        0.0
    }

    /// Bytes the snapshot references: every couple's entries and slice
    /// header, shared or not, plus the couple table.
    pub fn arena_bytes(&self) -> usize {
        const ARC_COUNTS: usize = 2 * std::mem::size_of::<usize>();
        self.entries * std::mem::size_of::<LabelEntry>()
            + self.couples.len() * (std::mem::size_of::<Couple>() + ARC_COUNTS)
    }
}

impl LabelStore for FrozenLabels {
    #[inline]
    fn vertex_count(&self) -> usize {
        2 * self.couples.len()
    }

    #[inline]
    fn in_of(&self, v: VertexId) -> &[LabelEntry] {
        if v.0 & 1 == 0 {
            self.couples[v.index() / 2].halves().1
        } else {
            &[]
        }
    }

    #[inline]
    fn out_of(&self, v: VertexId) -> &[LabelEntry] {
        if v.0 & 1 == 1 {
            self.couples[v.index() / 2].halves().0
        } else {
            &[]
        }
    }

    #[inline]
    fn total_entries(&self) -> usize {
        self.entries
    }
}

/// Running minimum-distance / count-sum accumulator for Equations (1)–(2).
#[derive(Clone, Copy)]
struct MinDistAcc {
    dist: u32,
    count: u64,
}

impl MinDistAcc {
    #[inline]
    fn new() -> Self {
        MinDistAcc {
            dist: u32::MAX,
            count: 0,
        }
    }

    #[inline]
    fn meet(&mut self, a: LabelEntry, b: LabelEntry) {
        let d = a.dist() + b.dist();
        if d < self.dist {
            self.dist = d;
            self.count = a.count().saturating_mul(b.count());
        } else if d == self.dist {
            self.count = self
                .count
                .saturating_add(a.count().saturating_mul(b.count()));
        }
    }

    /// Combines two partial results over disjoint hub ranges.
    #[inline]
    fn combine(mut self, other: MinDistAcc) -> MinDistAcc {
        if other.dist < self.dist {
            self = other;
        } else if other.dist == self.dist && self.dist != u32::MAX {
            self.count = self.count.saturating_add(other.count);
        }
        self
    }

    #[inline]
    fn finish(self) -> Option<DistCount> {
        (self.dist != u32::MAX).then_some(DistCount {
            dist: self.dist,
            count: self.count,
        })
    }
}

/// Adaptive sorted-list intersection: galloping when one side is ≥
/// [`GALLOP_SKEW`]× longer, a dual-chain branchless merge when both lists
/// are ≥ [`DUAL_CHAIN_MIN`] long, and a single branchless merge otherwise.
/// Exactly equivalent to [`crate::labels::intersect`].
pub fn intersect_adaptive(out_s: &[LabelEntry], in_t: &[LabelEntry]) -> Option<DistCount> {
    if out_s.is_empty() || in_t.is_empty() {
        return None;
    }
    // The sum and product in `meet` are symmetric, so the two sides are
    // interchangeable; gallop over the longer with keys from the shorter.
    if out_s.len() >= GALLOP_SKEW * in_t.len() {
        intersect_gallop(in_t, out_s)
    } else if in_t.len() >= GALLOP_SKEW * out_s.len() {
        intersect_gallop(out_s, in_t)
    } else if out_s.len().min(in_t.len()) >= DUAL_CHAIN_MIN {
        intersect_merge_dual(out_s, in_t)
    } else {
        intersect_merge(out_s, in_t)
    }
}

/// One branchless merge step over `a[*i..]` × `b[*j..]`: meets on a hub
/// match, then advances the lagging side(s) with branch-free conditional
/// increments. The only data-dependent branch is the (rare,
/// well-predicted) hub match.
#[inline(always)]
fn merge_step(
    a: &[LabelEntry],
    b: &[LabelEntry],
    i: &mut usize,
    j: &mut usize,
    acc: &mut MinDistAcc,
) {
    let (ea, eb) = (a[*i], b[*j]);
    let (ka, kb) = (ea.hub_rank(), eb.hub_rank());
    if ka == kb {
        acc.meet(ea, eb);
    }
    *i += (ka <= kb) as usize;
    *j += (kb <= ka) as usize;
}

/// Single-chain branchless two-pointer merge.
fn intersect_merge(a: &[LabelEntry], b: &[LabelEntry]) -> Option<DistCount> {
    let mut acc = MinDistAcc::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        merge_step(a, b, &mut i, &mut j, &mut acc);
    }
    acc.finish()
}

/// Dual-chain merge: splits both lists at a pivot rank (no hub pair can
/// straddle the split, since both lists are sorted by rank) and advances
/// the two independent sub-merges in lockstep within one loop, so the CPU
/// overlaps their loop-carried dependency chains.
fn intersect_merge_dual(a: &[LabelEntry], b: &[LabelEntry]) -> Option<DistCount> {
    let sa = a.len() / 2;
    let pivot = a[sa].hub_rank();
    let sb = gallop_lower_bound(b, 0, pivot);

    let mut low = MinDistAcc::new();
    let mut high = MinDistAcc::new();
    let (mut i1, mut j1) = (0usize, 0usize);
    let (mut i2, mut j2) = (sa, sb);
    // Interleaved phase: one step of each chain per iteration.
    while i1 < sa && j1 < sb && i2 < a.len() && j2 < b.len() {
        merge_step(a, b, &mut i1, &mut j1, &mut low);
        merge_step(a, b, &mut i2, &mut j2, &mut high);
    }
    // Drain whichever chain still has work.
    while i1 < sa && j1 < sb {
        merge_step(a, b, &mut i1, &mut j1, &mut low);
    }
    while i2 < a.len() && j2 < b.len() {
        merge_step(a, b, &mut i2, &mut j2, &mut high);
    }
    low.combine(high).finish()
}

/// For each entry of `short`, gallops forward in `long` — exponential probe
/// doubling from the last match position, then binary search inside the
/// overshot window. `O(|short| * log |long|)` worst case, and `O(|short| +
/// log |long|)`-ish when matches cluster, versus `O(|short| + |long|)` for
/// the merge.
fn intersect_gallop(short: &[LabelEntry], long: &[LabelEntry]) -> Option<DistCount> {
    let mut acc = MinDistAcc::new();
    let mut pos = 0usize;
    for &es in short {
        let key = es.hub_rank();
        pos = gallop_lower_bound(long, pos, key);
        if pos == long.len() {
            break;
        }
        let el = long[pos];
        if el.hub_rank() == key {
            acc.meet(es, el);
            pos += 1;
        }
    }
    acc.finish()
}

/// First index `>= start` whose hub rank is `>= key` (or `long.len()`).
fn gallop_lower_bound(long: &[LabelEntry], start: usize, key: u32) -> usize {
    // Exponential phase: every index below `lo` holds a rank `< key`.
    let mut lo = start;
    let mut step = 1usize;
    while lo + step <= long.len() && long[lo + step - 1].hub_rank() < key {
        lo += step;
        step <<= 1;
    }
    // Binary phase inside the overshot window.
    let mut hi = (lo + step - 1).min(long.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if long[mid].hub_rank() < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::intersect;

    fn e(h: u32, d: u32, c: u64) -> LabelEntry {
        LabelEntry::new(h, d, c).unwrap()
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample_labels() -> Labels {
        let mut l = Labels::new(4);
        l.append(v(0), LabelSide::In, e(0, 0, 1));
        l.append(v(0), LabelSide::Out, e(0, 1, 2));
        l.append(v(0), LabelSide::Out, e(2, 3, 1));
        l.append(v(1), LabelSide::In, e(0, 2, 1));
        l.append(v(1), LabelSide::In, e(2, 1, 4));
        l.append(v(3), LabelSide::Out, e(1, 5, 1));
        l
    }

    /// Couple 0 is `(Lout(1), Lin(0))`, couple 1 is `(Lout(3), Lin(2))`.
    fn couple_ids(c: u32) -> (VertexId, VertexId) {
        (v(2 * c + 1), v(2 * c))
    }

    #[test]
    fn freeze_keeps_the_query_halves_and_empties_the_rest() {
        let labels = sample_labels();
        let frozen = FrozenLabels::freeze(&labels);
        assert_eq!(LabelStore::vertex_count(&frozen), 4);
        for c in 0..2 {
            let (vo, vi) = couple_ids(c);
            assert_eq!(LabelStore::in_of(&frozen, vi), labels.in_of(vi));
            assert_eq!(LabelStore::out_of(&frozen, vo), labels.out_of(vo));
            assert_eq!(
                LabelStore::side_of(&frozen, vi, LabelSide::In),
                labels.in_of(vi)
            );
            assert!(LabelStore::out_of(&frozen, vi).is_empty());
            assert!(LabelStore::in_of(&frozen, vo).is_empty());
            assert_eq!(
                frozen.query_halves(v(c)),
                Some((labels.out_of(vo), labels.in_of(vi)))
            );
            assert_eq!(
                LabelStore::dist_count(&frozen, vo, vi),
                labels.dist_count(vo, vi)
            );
        }
        assert_eq!(frozen.query_halves(v(2)), None);
        // Lin(0) + Lin(2) + Lout(1) + Lout(3): the slices hold nothing else.
        assert_eq!(LabelStore::total_entries(&frozen), 2);
        assert_eq!(
            frozen.arena_bytes(),
            2 * 8 + 2 * (std::mem::size_of::<Couple>() + 16)
        );
        assert_eq!(frozen.dead_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "even vertex count")]
    fn freeze_rejects_odd_vertex_counts() {
        let _ = FrozenLabels::freeze(&Labels::new(3));
    }

    #[test]
    fn publish_shares_exactly_the_clean_couples() {
        let mut labels = sample_labels();
        let first = FrozenLabels::publish(&mut labels, None);
        assert_eq!(first, FrozenLabels::freeze(&labels));
        // A query half of couple 0, and halves no query reads on both.
        labels.upsert(v(0), LabelSide::In, e(3, 2, 1));
        labels.upsert(v(2), LabelSide::Out, e(3, 2, 1));
        labels.upsert(v(3), LabelSide::In, e(3, 2, 1));
        let second = FrozenLabels::publish(&mut labels, Some(&first));
        assert_eq!(second, FrozenLabels::freeze(&labels));
        assert!(!second.shares_couple(&first, v(0)), "dirty couple copied");
        assert!(second.shares_couple(&first, v(1)), "clean couple shared");

        // A stale seed shares nothing, even with nothing dirty.
        let stale = FrozenLabels::publish(&mut labels, Some(&first));
        assert_eq!(stale, second);
        assert!((0..2).all(|c| !stale.shares_couple(&second, v(c))));
        // The latest publication seeds the next one.
        let latest = FrozenLabels::publish(&mut labels, Some(&stale));
        assert!((0..2).all(|c| latest.shares_couple(&stale, v(c))));
    }

    #[test]
    fn foreign_seeds_rebuild_every_couple() {
        let mut labels = sample_labels();
        let published = FrozenLabels::publish(&mut labels, None);
        let shares_none = |f: &FrozenLabels| (0..2).all(|c| !f.shares_couple(&published, v(c)));

        // A clone is another store, with its own publications.
        let mut clone = labels.clone();
        assert_eq!(clone, labels);
        let from_clone = FrozenLabels::publish(&mut clone, Some(&published));
        assert!(shares_none(&from_clone));
        assert_eq!(from_clone, published);

        // A plain freeze carries no stamp.
        let frozen = FrozenLabels::freeze(&labels);
        let mut again = sample_labels();
        assert!(shares_none(&FrozenLabels::publish(
            &mut again,
            Some(&frozen)
        )));

        // Growth rebuilds, new couple included.
        labels.push_vertex();
        labels.push_vertex();
        labels.append(v(5), LabelSide::Out, e(2, 1, 1));
        let grown = FrozenLabels::publish(&mut labels, Some(&published));
        assert!(shares_none(&grown));
        assert_eq!(grown, FrozenLabels::freeze(&labels));
        assert_eq!(LabelStore::vertex_count(&grown), 6);
    }

    #[test]
    fn dual_chain_threshold_lists_agree_with_reference() {
        // Both lists long enough for the dual-chain path, dense overlap.
        let a: Vec<LabelEntry> = (0..80)
            .map(|h| e(3 * h, (h % 11) + 1, (h % 5 + 1) as u64))
            .collect();
        let b: Vec<LabelEntry> = (0..90)
            .map(|h| e(2 * h, (h % 7) + 1, (h % 3 + 1) as u64))
            .collect();
        assert!(a.len().min(b.len()) >= DUAL_CHAIN_MIN);
        assert_eq!(intersect_adaptive(&a, &b), intersect(&a, &b));
        assert_eq!(intersect_adaptive(&b, &a), intersect(&a, &b));
    }

    #[test]
    fn trait_query_agrees_between_layouts() {
        let labels = sample_labels();
        let frozen = FrozenLabels::freeze(&labels);
        // Every out-vertex against every in-vertex: the pairs whose
        // halves the frozen layout stores.
        for s in [1, 3] {
            for t in [0, 2] {
                let (s, t) = (v(s), v(t));
                assert_eq!(
                    LabelStore::dist_count(&frozen, s, t),
                    labels.dist_count(s, t),
                    "({s}, {t})"
                );
                assert_eq!(LabelStore::dist(&frozen, s, t), labels.dist(s, t));
            }
        }
    }

    #[test]
    fn budgeted_dist_count_matches_and_aborts() {
        use csc_graph::budget::{BudgetExceeded, OpBudget};
        use std::time::Duration;

        let labels = sample_labels();
        let frozen = FrozenLabels::freeze(&labels);
        let roomy = OpBudget::within(Duration::from_secs(3600));
        for s in [1, 3] {
            for t in [0, 2] {
                let (s, t) = (v(s), v(t));
                assert_eq!(
                    frozen.dist_count_budgeted(s, t, &roomy).unwrap(),
                    LabelStore::dist_count(&frozen, s, t)
                );
                // The nested layout honors the same trait checkpoint.
                assert_eq!(
                    labels.dist_count_budgeted(s, t, &roomy).unwrap(),
                    labels.dist_count(s, t)
                );
            }
        }
        let expired = OpBudget::within(Duration::ZERO);
        assert_eq!(
            frozen.dist_count_budgeted(v(1), v(0), &expired),
            Err(BudgetExceeded)
        );
    }

    #[test]
    fn empty_and_disjoint_lists() {
        assert_eq!(intersect_adaptive(&[], &[]), None);
        assert_eq!(intersect_adaptive(&[e(1, 1, 1)], &[]), None);
        assert_eq!(intersect_adaptive(&[], &[e(1, 1, 1)]), None);
        let a = [e(0, 1, 1), e(2, 1, 1), e(4, 1, 1)];
        let b = [e(1, 1, 1), e(3, 1, 1), e(5, 1, 1)];
        assert_eq!(intersect_adaptive(&a, &b), None);
    }

    #[test]
    fn merge_and_gallop_agree_with_reference_on_skewed_lists() {
        // `long` is every even hub up to 400; `short` hits a few of them.
        let long: Vec<LabelEntry> = (0..200)
            .map(|h| e(2 * h, (h % 9) + 1, (h % 3 + 1) as u64))
            .collect();
        let short = [e(2, 1, 2), e(97, 1, 1), e(200, 2, 5), e(398, 1, 1)];
        assert!(
            long.len() >= GALLOP_SKEW * short.len(),
            "exercises galloping"
        );
        let want = intersect(&short, &long);
        assert_eq!(intersect_adaptive(&short, &long), want);
        assert_eq!(intersect_adaptive(&long, &short), want);
        assert!(want.is_some());
    }

    #[test]
    fn gallop_lower_bound_boundaries() {
        let list: Vec<LabelEntry> = [1u32, 3, 5, 8, 13].iter().map(|&h| e(h, 1, 1)).collect();
        assert_eq!(gallop_lower_bound(&list, 0, 0), 0);
        assert_eq!(gallop_lower_bound(&list, 0, 1), 0);
        assert_eq!(gallop_lower_bound(&list, 0, 2), 1);
        assert_eq!(gallop_lower_bound(&list, 0, 13), 4);
        assert_eq!(gallop_lower_bound(&list, 0, 14), 5);
        assert_eq!(gallop_lower_bound(&list, 3, 5), 3, "start past the key");
        assert_eq!(gallop_lower_bound(&[], 0, 7), 0);
    }

    #[test]
    fn worked_example_2_matches_nested_kernel() {
        // SPCnt(v10, v8) from the paper's Figure 2 (see labels.rs tests).
        let out_v10 = [e(0, 1, 1), e(1, 3, 1)];
        let in_v8 = [e(0, 3, 2), e(1, 1, 1)];
        assert_eq!(
            intersect_adaptive(&out_v10, &in_v8),
            Some(DistCount { dist: 4, count: 3 })
        );
    }

    #[test]
    fn saturating_count_arithmetic_matches() {
        let big = crate::entry::MAX_COUNT;
        let a = [e(0, 1, big), e(1, 1, big)];
        let b = [e(0, 1, big), e(1, 1, big)];
        assert_eq!(intersect_adaptive(&a, &b), intersect(&a, &b));
    }
}
