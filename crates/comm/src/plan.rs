//! Message-passing halo exchange: precomputed channel plans and
//! thread-safe mailboxes.
//!
//! [`HaloUpdater::exchange_scalar`](crate::HaloUpdater::exchange_scalar)
//! is a *pull*-style gather: one thread walks every rank's halo and reads
//! the source interiors directly. Real ranks running on real threads need
//! the *push* decomposition instead — each rank packs what its neighbours
//! will need, posts it, and unpacks what its neighbours posted. An
//! [`ExchangePlan`] precomputes that decomposition from the partition:
//! one [`Channel`] per directed (source → destination) rank pair, each a
//! list of (destination halo cell, source interior cell, optional vector
//! transform) taps derived from the same canonical halo enumeration the
//! sequential updater walks. Packing reads only pre-exchange interiors
//! and every halo cell has exactly one writer, so a plan-driven exchange
//! is bit-identical to `exchange_impl` — `plan_matches_sequential_*` in
//! the crate tests holds this equivalence down to the ULP.
//!
//! [`HaloMailboxes`] is the wire: one slot per channel, holding at most
//! one message — a sender posts a channel once per substep, and the team
//! joins before the next. The team registers its senders
//! ([`HaloMailboxes::open`]) and each marks its post phase done
//! ([`HaloMailboxes::sender_done`]), so a receive tells a late message
//! from a lost one without a clock: a message in the slot is taken, an
//! empty slot with no sender still posting is [`RecvError::Lost`], and
//! anything else waits. Its deadline is a backstop for a sender that
//! never runs.

pub use crate::halo::FoldCell;
use crate::halo::{corner_folds, fold_corners, halo_cells, ExchangeStats, Orientation};
use crate::partition::{HaloSource, Partition, RankId};
use dataflow::Array3;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One halo cell's wire mapping: destination-local halo cell, source-local
/// interior cell, and the 2×2 frame transform for vector pairs crossing a
/// tile seam (`None` for intra-tile taps — raw copy).
#[derive(Debug, Clone, Copy)]
pub struct CellTap {
    pub di: i64,
    pub dj: i64,
    pub si: i64,
    pub sj: i64,
    pub transform: Option<[[i64; 2]; 2]>,
}

/// All taps from one source rank into one destination rank's halo, in
/// canonical halo-enumeration order.
#[derive(Debug, Clone)]
pub struct Channel {
    pub src: RankId,
    pub dst: RankId,
    pub cells: Vec<CellTap>,
}

/// What a channel packs for one field slot.
pub enum PackField<'a> {
    /// Scalar field: copy the source value.
    Scalar(&'a Array3),
    /// Component `row` (0 = u-like, 1 = v-like) of a vector pair: cross-
    /// tile taps blend both components through the 2×2 transform, exactly
    /// as `exchange_impl` does for `exchange_vector`.
    Vector {
        primary: &'a Array3,
        partner: &'a Array3,
        row: usize,
    },
}

/// A precomputed push-style halo exchange for a fixed partition/width.
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    part: Partition,
    channels: Vec<Channel>,
    /// Channel indices with `src == r`, per rank.
    sends: Vec<Vec<usize>>,
    /// Channel indices with `dst == r`, per rank.
    recvs: Vec<Vec<usize>>,
    /// Cube-corner folds, per rank.
    folds: Vec<Vec<FoldCell>>,
}

impl ExchangePlan {
    /// Derive the channel plan from the partition's halo sources.
    pub fn new(part: &Partition, width: usize) -> Self {
        assert!(
            width <= part.sub_n,
            "halo width {} exceeds subdomain size {}",
            width,
            part.sub_n
        );
        let s = part.sub_n as i64;
        let w = width as i64;
        let nranks = part.ranks();
        let mut channels: Vec<Channel> = Vec::new();
        let mut index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut folds = vec![Vec::new(); nranks];
        // `r` is a rank id driving coords/halo_source lookups, not just a
        // folds index.
        #[allow(clippy::needless_range_loop)]
        for r in 0..nranks {
            let (tile, _, _) = part.coords(RankId(r));
            for (i, j) in halo_cells(s, w) {
                let (src, si, sj, transform) = match part.halo_source(RankId(r), i, j) {
                    HaloSource::Intra { rank, i: si, j: sj } => (rank, si, sj, None),
                    HaloSource::Inter {
                        rank,
                        i: si,
                        j: sj,
                        from_tile,
                    } => (
                        rank,
                        si,
                        sj,
                        Some(part.geom.vector_transform(tile, from_tile)),
                    ),
                    HaloSource::CubeCorner => continue,
                };
                let ch = *index.entry((src.0, r)).or_insert_with(|| {
                    channels.push(Channel {
                        src,
                        dst: RankId(r),
                        cells: Vec::new(),
                    });
                    channels.len() - 1
                });
                channels[ch].cells.push(CellTap {
                    di: i,
                    dj: j,
                    si,
                    sj,
                    transform,
                });
            }
            folds[r] = corner_folds(part, r, w);
        }
        let mut sends = vec![Vec::new(); nranks];
        let mut recvs = vec![Vec::new(); nranks];
        for (c, ch) in channels.iter().enumerate() {
            sends[ch.src.0].push(c);
            recvs[ch.dst.0].push(c);
        }
        ExchangePlan {
            part: part.clone(),
            channels,
            sends,
            recvs,
            folds,
        }
    }

    /// Number of directed channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// The channel at `idx`.
    pub fn channel(&self, idx: usize) -> &Channel {
        &self.channels[idx]
    }

    /// Channels rank `r` sends on.
    pub fn sends(&self, r: usize) -> &[usize] {
        &self.sends[r]
    }

    /// Channels rank `r` receives on.
    pub fn recvs(&self, r: usize) -> &[usize] {
        &self.recvs[r]
    }

    /// Pack one channel's buffer: fields outer, cells middle, k inner.
    /// Reads only source-rank interior cells, so packing is valid against
    /// any pre-exchange state.
    pub fn pack(&self, ch: usize, nk: i64, fields: &[PackField]) -> Vec<f64> {
        let mut buf = Vec::new();
        self.pack_into(ch, nk, fields, &mut buf);
        buf
    }

    /// [`pack`](Self::pack) into `buf`, replacing what it held: a sender
    /// that gets its buffers back ([`HaloMailboxes::spare`]) packs without
    /// allocating.
    pub fn pack_into(&self, ch: usize, nk: i64, fields: &[PackField], buf: &mut Vec<f64>) {
        let cells = &self.channels[ch].cells;
        let nk = nk as usize;
        buf.clear();
        buf.reserve(fields.len() * cells.len() * nk);
        let copy = |buf: &mut Vec<f64>, a: &Array3, t: &CellTap| {
            let (at, sk) = a.column(t.si, t.sj);
            let a = a.raw();
            buf.extend((0..nk).map(|k| a[at + k * sk]));
        };
        for f in fields {
            match *f {
                PackField::Scalar(a) => cells.iter().for_each(|t| copy(buf, a, t)),
                PackField::Vector {
                    primary,
                    partner,
                    row,
                } => {
                    for t in cells {
                        let Some(m) = t.transform else {
                            copy(buf, primary, t);
                            continue;
                        };
                        let (mu, mv) = (m[row][0], m[row][1]);
                        let (at, ak) = primary.column(t.si, t.sj);
                        let (bt, bk) = partner.column(t.si, t.sj);
                        let (a, b) = (primary.raw(), partner.raw());
                        buf.extend((0..nk).map(|k| {
                            let (a, b) = (a[at + k * ak], b[bt + k * bk]);
                            let (gu, gv) = if row == 0 { (a, b) } else { (b, a) };
                            mu as f64 * gu + mv as f64 * gv
                        }));
                    }
                }
            }
        }
    }

    /// Unpack field slot `field_idx` (of `n_fields` packed) from a
    /// channel buffer into the destination rank's array. Writes only halo
    /// cells; each halo cell of the destination is written by exactly one
    /// channel.
    pub fn unpack_field(
        &self,
        ch: usize,
        buf: &[f64],
        field_idx: usize,
        n_fields: usize,
        nk: i64,
        arr: &mut Array3,
    ) {
        let cells = &self.channels[ch].cells;
        let nk = nk as usize;
        let per_field = cells.len() * nk;
        assert_eq!(buf.len(), n_fields * per_field, "channel buffer size");
        let field = &buf[field_idx * per_field..][..per_field];
        for (c, t) in cells.iter().enumerate() {
            let (at, sk) = arr.column(t.di, t.dj);
            let raw = arr.raw_mut();
            for (k, v) in field[c * nk..][..nk].iter().enumerate() {
                raw[at + k * sk] = *v;
            }
        }
    }

    /// Apply rank `r`'s cube-corner folds to `arr` (after all of its
    /// channels have been unpacked into `arr`).
    pub fn apply_folds(&self, r: usize, nk: i64, arr: &mut Array3) {
        fold_corners(&self.folds[r], nk as usize, arr);
    }

    /// The statistics one single-field exchange over this plan produces —
    /// structurally the same enumeration as `HaloUpdater::exact_stats`, so
    /// the two agree exactly (asserted in the crate tests).
    pub fn stats(&self, nk: usize) -> ExchangeStats {
        let s = self.part.sub_n as i64;
        let nranks = self.part.ranks();
        let mut msgs = vec![BTreeSet::new(); nranks];
        let mut bytes = vec![0u64; nranks];
        let mut by_orientation = [0u64; 5];
        for ch in &self.channels {
            msgs[ch.src.0].insert(ch.dst.0);
            for t in &ch.cells {
                let cell_bytes = nk as u64 * 8;
                bytes[ch.src.0] += cell_bytes;
                by_orientation[Orientation::classify(t.di, t.dj, s).idx()] += cell_bytes;
            }
        }
        ExchangeStats {
            messages_per_rank: msgs.iter().map(|m| m.len() as u64).max().unwrap_or(0),
            bytes_per_rank: bytes.iter().copied().max().unwrap_or(0),
            total_messages: msgs.iter().map(|m| m.len() as u64).sum(),
            total_bytes: bytes.iter().sum(),
            bytes_by_orientation: by_orientation,
        }
    }
}

/// Receive failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The slot is empty and no sender is still posting: the message was
    /// never posted (dropped, or its sender failed before posting it).
    Lost,
    /// The deadline passed first: a sender never finished its post
    /// phase (its worker never ran), or its done did not wake the slot.
    Timeout,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Lost => write!(f, "message lost: no sender is still posting"),
            RecvError::Timeout => write!(f, "timed out on a sender that never finished posting"),
        }
    }
}

struct Slot {
    msg: Mutex<Option<Vec<f64>>>,
    cv: Condvar,
    /// The last buffer the receiver was done with, for the sender's next
    /// pack.
    spare: Mutex<Vec<f64>>,
}

/// Thread-safe mailboxes: one slot per plan channel, and a count of the
/// senders still posting this substep.
pub struct HaloMailboxes {
    slots: Vec<Slot>,
    posting: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl HaloMailboxes {
    /// One empty slot per channel of `plan`, no sender registered.
    pub fn for_plan(plan: &ExchangePlan) -> Self {
        HaloMailboxes {
            slots: (0..plan.n_channels())
                .map(|_| Slot {
                    msg: Mutex::new(None),
                    cv: Condvar::new(),
                    spare: Mutex::new(Vec::new()),
                })
                .collect(),
            posting: AtomicUsize::new(0),
        }
    }

    /// Register the `senders` that post this substep: until each has
    /// called [`sender_done`](Self::sender_done), a receive on an empty
    /// slot waits. Must not be called while a receive is in flight.
    pub fn open(&self, senders: usize) {
        self.posting.store(senders, Ordering::Release);
    }

    /// Mark one sender's post phase over, whether it completed or
    /// unwound. The last one wakes every slot: a message not posted by
    /// then never will be.
    pub fn sender_done(&self) {
        let before = self.posting.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(before > 0, "sender_done without a registered sender");
        if before == 1 {
            for slot in &self.slots {
                // Taking the lock orders this wake after any receiver's
                // read of the count under it.
                let _msg = lock(&slot.msg);
                slot.cv.notify_all();
            }
        }
    }

    /// Post a buffer on channel `ch` (nonblocking).
    pub fn post(&self, ch: usize, buf: Vec<f64>) {
        let slot = &self.slots[ch];
        let held = lock(&slot.msg).replace(buf);
        debug_assert!(held.is_none(), "channel {ch} posted twice in one substep");
        slot.cv.notify_all();
    }

    /// The message on channel `ch`: taken if it is in the slot,
    /// [`RecvError::Lost`] if not and no sender is still posting;
    /// otherwise wait, up to `deadline` (the backstop, checked before the
    /// count so a missed wake reads as [`RecvError::Timeout`]).
    pub fn recv(&self, ch: usize, deadline: Duration) -> Result<Vec<f64>, RecvError> {
        let slot = &self.slots[ch];
        let t0 = Instant::now();
        let mut msg = lock(&slot.msg);
        loop {
            // A present message wins over "no sender left"; the count is
            // read under the slot's lock, which the last sender takes to
            // wake it.
            if let Some(buf) = msg.take() {
                return Ok(buf);
            }
            let left = deadline.saturating_sub(t0.elapsed());
            if left.is_zero() {
                return Err(RecvError::Timeout);
            }
            if self.posting.load(Ordering::Acquire) == 0 {
                return Err(RecvError::Lost);
            }
            msg = slot.cv.wait_timeout(msg, left).unwrap_or_else(|e| e.into_inner()).0;
        }
    }

    /// Hand an unpacked buffer of channel `ch` back to its sender.
    pub fn recycle(&self, ch: usize, buf: Vec<f64>) {
        *lock(&self.slots[ch].spare) = buf;
    }

    /// The buffer last [`recycle`](Self::recycle)d on channel `ch`, for
    /// [`ExchangePlan::pack_into`]; empty when none came back.
    pub fn spare(&self, ch: usize) -> Vec<f64> {
        std::mem::take(&mut *lock(&self.slots[ch].spare))
    }

    /// Free every buffer the mailboxes hold — posted messages and
    /// recycled spares: the driver's team of one keeps no halo buffer
    /// past its substep. Must not be called while rank threads are live.
    pub fn reset(&self) {
        for slot in &self.slots {
            *lock(&slot.msg) = None;
            *lock(&slot.spare) = Vec::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::{rank_arrays, CornerPolicy, HaloUpdater};

    fn fill(part: &Partition, arrays: &mut [Array3], salt: f64) {
        let s = part.sub_n as i64;
        let nk = arrays[0].layout().domain[2] as i64;
        for (r, arr) in arrays.iter_mut().enumerate() {
            for k in 0..nk {
                for j in 0..s {
                    for i in 0..s {
                        let v = (r as f64 * 1.37 + i as f64 * 0.11 + j as f64 * 0.77
                            + k as f64 * 3.1
                            + salt)
                            .sin();
                        arr.set(i, j, k, v);
                    }
                }
            }
        }
    }

    fn assert_bitwise_eq(a: &[Array3], b: &[Array3], what: &str) {
        for (r, (x, y)) in a.iter().zip(b).enumerate() {
            let (xs, ys) = (x.export_logical(), y.export_logical());
            for (n, (p, q)) in xs.iter().zip(ys.iter()).enumerate() {
                assert!(
                    p.to_bits() == q.to_bits(),
                    "{what}: rank {r} flat index {n}: {p:?} vs {q:?}"
                );
            }
        }
    }

    #[test]
    fn plan_scalar_matches_sequential_exchange_bitwise() {
        for (tile_n, rt, w, nk) in [(8, 1, 4, 3), (8, 2, 2, 2), (12, 3, 3, 2)] {
            let part = Partition::new(tile_n, rt);
            let up = HaloUpdater::new(part.clone(), w, CornerPolicy::Fold);
            let plan = ExchangePlan::new(&part, w);
            let mut seq = rank_arrays(&part, nk, w);
            fill(&part, &mut seq, 0.25);
            let mut par = seq.clone();
            up.exchange_scalar(&mut seq);
            // Plan path: pack every channel from the pre-exchange state,
            // then unpack and fold, all on one thread.
            let nk = nk as i64;
            let bufs: Vec<Vec<f64>> = (0..plan.n_channels())
                .map(|c| plan.pack(c, nk, &[PackField::Scalar(&par[plan.channel(c).src.0])]))
                .collect();
            for (c, buf) in bufs.iter().enumerate() {
                plan.unpack_field(c, buf, 0, 1, nk, &mut par[plan.channel(c).dst.0]);
            }
            for (r, arr) in par.iter_mut().enumerate() {
                plan.apply_folds(r, nk, arr);
            }
            assert_bitwise_eq(&seq, &par, &format!("c{tile_n} rt={rt} w={w}"));
        }
    }

    #[test]
    fn plan_vector_matches_sequential_exchange_bitwise() {
        let part = Partition::new(8, 1);
        let w = 4;
        let up = HaloUpdater::new(part.clone(), w, CornerPolicy::Fold);
        let plan = ExchangePlan::new(&part, w);
        let mut us = rank_arrays(&part, 3, w);
        let mut vs = rank_arrays(&part, 3, w);
        fill(&part, &mut us, 0.1);
        fill(&part, &mut vs, 0.9);
        // Plan path: single-phase pack of both components from the
        // pre-exchange state (u's unpack only writes halo cells, so v's
        // pack reads are unaffected by ordering).
        let (mut pu, mut pv) = (us.clone(), vs.clone());
        up.exchange_vector(&mut us, &mut vs);
        let nk = 3i64;
        let mut bufs = Vec::new();
        for c in 0..plan.n_channels() {
            let src = plan.channel(c).src.0;
            bufs.push(plan.pack(
                c,
                nk,
                &[
                    PackField::Vector {
                        primary: &pu[src],
                        partner: &pv[src],
                        row: 0,
                    },
                    PackField::Vector {
                        primary: &pv[src],
                        partner: &pu[src],
                        row: 1,
                    },
                ],
            ));
        }
        for (c, buf) in bufs.iter().enumerate() {
            let dst = plan.channel(c).dst.0;
            plan.unpack_field(c, buf, 0, 2, nk, &mut pu[dst]);
            plan.unpack_field(c, buf, 1, 2, nk, &mut pv[dst]);
        }
        for r in 0..part.ranks() {
            plan.apply_folds(r, nk, &mut pu[r]);
            plan.apply_folds(r, nk, &mut pv[r]);
        }
        assert_bitwise_eq(&us, &pu, "vector u");
        assert_bitwise_eq(&vs, &pv, "vector v");
    }

    #[test]
    fn plan_stats_match_exact_stats_at_scale() {
        // The weak-scaling partitions: c8 (6 ranks), c48 (24 ranks), c96
        // (96 ranks). Plan-derived stats must equal the analytic closed
        // forms of the sequential updater.
        for (tile_n, rt, w, nk) in [(8, 1, 4, 6), (48, 2, 4, 6), (96, 4, 4, 6)] {
            let part = Partition::new(tile_n, rt);
            let up = HaloUpdater::new(part.clone(), w, CornerPolicy::Leave);
            let plan = ExchangePlan::new(&part, w);
            assert_eq!(
                plan.stats(nk),
                up.exact_stats(nk),
                "c{tile_n} rt={rt} w={w} nk={nk}"
            );
        }
    }

    fn mailboxes() -> HaloMailboxes {
        HaloMailboxes::for_plan(&ExchangePlan::new(&Partition::new(8, 1), 2))
    }

    /// The backstop: a sender that registered and never finished.
    #[test]
    fn mailbox_recv_times_out_instead_of_hanging() {
        let boxes = mailboxes();
        boxes.open(1);
        let t0 = Instant::now();
        let err = boxes.recv(0, Duration::from_millis(50)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
        assert!(t0.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn a_receive_after_every_sender_is_done_finds_lost() {
        let boxes = mailboxes();
        boxes.open(2);
        boxes.post(3, vec![1.0]);
        boxes.sender_done();
        boxes.sender_done();
        assert_eq!(boxes.recv(0, Duration::from_secs(30)), Err(RecvError::Lost));
        let got = boxes.recv(3, Duration::from_secs(30)).unwrap();
        boxes.recycle(3, got);
        // A reset frees the recycled spare and anything left posted.
        boxes.post(3, vec![2.0]);
        boxes.reset();
        assert!(boxes.spare(3).is_empty());
        assert_eq!(boxes.recv(3, Duration::from_secs(30)), Err(RecvError::Lost));
    }

    #[test]
    fn a_posted_message_wins_over_no_sender_left() {
        let boxes = mailboxes();
        boxes.open(1);
        boxes.post(3, vec![3.0]);
        boxes.sender_done();
        // Even with no time left to wait.
        assert_eq!(boxes.recv(3, Duration::ZERO), Ok(vec![3.0]));
        assert_eq!(boxes.recv(3, Duration::from_secs(30)), Err(RecvError::Lost));
    }

    /// What a receive on channel 5 returns when `act` runs on another
    /// thread, handed off as the receive starts: the receive is nearly
    /// always waiting by then, so a wake that never comes reads as
    /// `Timeout` (after 30 s) instead of the result `act` should cause.
    fn recv_across(boxes: &HaloMailboxes, act: impl FnOnce() + Send) -> Result<Vec<f64>, RecvError> {
        let (go, went) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                went.recv().unwrap();
                act();
            });
            go.send(()).unwrap();
            boxes.recv(5, Duration::from_secs(30))
        })
    }

    #[test]
    fn a_blocked_receiver_gets_the_message_once_its_sender_posts() {
        let boxes = mailboxes();
        boxes.open(1);
        let got = recv_across(&boxes, || {
            boxes.post(5, vec![5.0]);
            boxes.sender_done();
        });
        assert_eq!(got, Ok(vec![5.0]));
    }

    #[test]
    fn the_last_senders_done_wakes_a_blocked_receiver_with_lost() {
        let boxes = mailboxes();
        boxes.open(2);
        let got = recv_across(&boxes, || {
            boxes.sender_done();
            boxes.sender_done();
        });
        assert_eq!(got, Err(RecvError::Lost));
    }
}
