//! The production engine: arrivals are *ingested* one at a time.
//!
//! A serving loop has neither a forest nor a horizon up front: clients
//! show up one by one, the merge policy commits each one at traffic time,
//! and reports must flow out while the horizon is still growing. An
//! off-line replay is the same computation fed an arrival sequence known
//! in advance, so the batch API ([`super::simulate_with`],
//! [`super::simulate_streaming`]) is a thin layer that pushes a ready-made
//! `(forest, times)` pair through this engine ([`simulate_incremental`]).
//! [`IncrementalEngine`] works as follows:
//!
//! * **one open tree** — arrivals attach to the most recently opened tree
//!   (the model's invariant: merging across closed trees is impossible
//!   because their streams have already begun). Every retained tree lives
//!   in one shared set of three columns — parent, arrival time and
//!   *tentative* Lemma-1 stream length — indexed by global arrival:
//!   retained trees are consecutive arrival ranges, served-out trees leave
//!   from the front and the columns compact in place, so steady-state
//!   pushes are allocation-free and warm-up allocations do not grow with
//!   the number of retained trees. Attaching `y` under `p` makes `y` the
//!   last descendant of its entire root path, so exactly the nodes on
//!   that path update, to `ℓ(x) = (t_y − t_x) + (t_y − t_{p(x)})`, in one
//!   `O(depth)` walk up the parent column with no re-derivation from the
//!   prefix;
//! * **deadlines fire during ingest** — a client's report depends only on
//!   its root-path arrival times and on stream lengths that later arrivals
//!   can only *grow* past its demands (`t_z ≥ t_c` for every later
//!   descendant), so each report is final the moment the client's last
//!   part-deadline `t_c + L` falls strictly before the ingest clock.
//!   Reports stream out through `emit` in deadline order (ties by arrival
//!   index), with exactly the values and first error of the
//!   [`dense`](super::dense) oracle;
//! * **the bandwidth running peak finalizes at tree closure** — a stream's
//!   end moves later while descendants can still attach (a tied co-arrival
//!   even gains its start retroactively), so a tree hands its streams to
//!   the bandwidth meter only when a new root closes it. Starts are
//!   arrival times, already sorted, so they queue in a FIFO; only ends
//!   need a min-heap. All future events lie at or past the closing root's
//!   arrival, so both drain strictly below it, each instant netted into
//!   the live count and folded into a running peak. Queue, heap and
//!   retention are `O(open trees + active streams)`, never `O(arrivals)`;
//! * **time travel is rejected, interleaving is not** — `push` accepts any
//!   nondecreasing time sequence (ties included) and fails fast with
//!   [`IngestError::OutOfOrder`] otherwise, leaving the engine untouched.
//!
//! Per-client metrics are computed in closed form from the receiving
//! program's segments instead of slot-by-slot replay. For a client at `t_c`
//! receiving parts `[first, last]` from the stream of node `x_j` (started at
//! `t_j`):
//!
//! * part `q` is broadcast in slot `t_j + q − 1` and plays in slot
//!   `t_c + q − 1`, so the *slack* `t_c − t_j` and the *stall* condition
//!   `t_j > t_c` are constant across the segment;
//! * reception occupies the slot interval `[t_j+first−1, t_j+last−1]`, so
//!   receive-two compliance is interval-overlap ≤ 2;
//! * buffer occupancy `received(τ) − played(τ)` is piecewise linear in `τ`
//!   with kinks only at segment interval endpoints (and `t_c`, `t_c + L`);
//!   one merged sweep over the sorted endpoints evaluates every kink
//!   candidate with a running `(open streams, Σ open starts, finished
//!   parts)` prefix — `O(segments log segments)` total, never
//!   candidates × segments.
//!
//! All per-client evaluation state lives in one `EngineScratch` reused
//! across every client of the run; a client's receiving program is its
//! root path, read off the parent column. The pointer-based
//! `MergeTree`/`ReceivingProgram` stay the validated constructors; the
//! dense oracle keeps using them directly, so the column form itself is
//! cross-checked. The `engine_equivalence` proptest suite pins this engine
//! bit-identical (reports, emission order, summary, first error) to the
//! dense oracle on every sorted input.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

use super::{ClientReport, SimConfig};
use crate::error::SimError;
use crate::schedule::checked_media_len;
use sm_core::{MergeForest, ModelError};

/// Where one ingested arrival goes, structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// Open a new tree with this arrival as its root (a full stream);
    /// closes the previously open tree.
    Root,
    /// Merge under the arrival with this *global* index, which must lie in
    /// the currently open tree.
    Under(usize),
}

/// An ingest call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// A simulation-model violation (same errors, same precedence, as the
    /// dense oracle).
    Sim(SimError),
    /// The arrival time moved backwards; the serving clock only advances.
    OutOfOrder {
        /// The offending push time.
        time: i64,
        /// The latest time already ingested.
        last: i64,
    },
    /// An [`Attach::Under`] named a parent outside the currently open tree
    /// (or no tree was open at all).
    ParentNotOpen {
        /// Global index the rejected arrival would have received.
        node: usize,
        /// The out-of-range parent it named.
        parent: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sim(e) => write!(f, "{e}"),
            Self::OutOfOrder { time, last } => {
                write!(f, "arrival at {time} pushed after the clock reached {last}")
            }
            Self::ParentNotOpen { node, parent } => write!(
                f,
                "arrival {node} merges under {parent}, which is not in the open tree"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<SimError> for IngestError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// The batch API's view of an ingest failure. Only [`IngestError::Sim`]
/// can come out of a replay of a valid forest over sorted times; the other
/// two map onto the model errors they stand for.
impl From<IngestError> for SimError {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Sim(e) => e,
            IngestError::OutOfOrder { .. } => Self::Model(ModelError::TimesNotSorted),
            IngestError::ParentNotOpen { node, parent } => {
                Self::Model(ModelError::ParentNotEarlier { node, parent })
            }
        }
    }
}

/// Whole-run aggregates of a streaming simulation: the peak and total of
/// a [`SimReport`](super::SimReport)'s bandwidth profile, and its client
/// count. A long-running server keeps only these, so its memory does not
/// grow with the arrivals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingSummary {
    /// Peak concurrent streams (the bandwidth profile's
    /// [`peak`](crate::BandwidthProfile::peak)).
    pub peak_streams: u32,
    /// Total transmitted slot-units (`= Fcost`).
    pub total_units: i64,
    /// Number of clients served (and emitted).
    pub clients: usize,
}

/// Whole-run aggregates of an ingest run: the batch
/// [`StreamingSummary`] plus the ingest loop's own memory gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalSummary {
    /// Bit-identical to what [`super::simulate_streaming`] returns for the
    /// same arrivals.
    pub summary: StreamingSummary,
    /// High-water mark of simultaneously retained trees (the open tree
    /// plus closed trees with clients still inside their playback
    /// windows) — the `O(open trees)` claim, measured.
    pub max_open_trees: usize,
}

/// The nodes of every retained tree, as three columns indexed by global
/// arrival: entry `i` is arrival `offset + i`. Retained trees are
/// consecutive arrival ranges (closed trees oldest first, then the open
/// tree), so a tree is a subslice, and served-out trees are forgotten from
/// the front.
#[derive(Debug, Default)]
struct Columns {
    /// Global index of entry 0.
    offset: usize,
    /// Tree-local parent of each node; a root's entry is unused.
    parent: Vec<usize>,
    times: Vec<i64>,
    /// Lemma-1 stream lengths: final once the tree is closed; while it is
    /// open, tentative — exact for the tree as grown so far, and only
    /// root-path entries of future arrivals can still grow.
    lengths: Vec<i64>,
}

impl Columns {
    /// The retained tree spanning global arrivals `range`.
    fn tree(&self, range: Range<usize>) -> Tree<'_> {
        let cols = range.start - self.offset..range.end - self.offset;
        Tree {
            base: range.start,
            parent: &self.parent[cols.clone()],
            times: &self.times[cols.clone()],
            lengths: &self.lengths[cols],
        }
    }

    /// Arrival time of retained global arrival `arrival`.
    fn time(&self, arrival: usize) -> i64 {
        self.times[arrival - self.offset]
    }

    /// Appends a root at `time` with a full-length stream.
    fn push_root(&mut self, time: i64, media: i64) {
        self.parent.push(0);
        self.times.push(time);
        self.lengths.push(media);
    }

    /// Attaches an arrival at `time` under local node `parent` of the tree
    /// rooted at global index `base` (the last tree in the columns),
    /// updating the tentative lengths of exactly the new node's root path:
    /// the new node becomes the last descendant of every proper ancestor
    /// `a`, so each non-root `a` gets `ℓ(a) = (t_y − t_a) + (t_y − t_{p(a)})`;
    /// the root keeps the full media length.
    fn attach(&mut self, base: usize, time: i64, parent: usize) {
        let b = base - self.offset;
        let (parents, times) = (&self.parent[b..], &self.times[b..]);
        let lengths = &mut self.lengths[b..];
        let mut a = parent;
        while a != 0 {
            let up = parents[a];
            lengths[a] = (time - times[a]) + (time - times[up]);
            a = up;
        }
        // The new node is its own last descendant: ℓ = t_y − t_p.
        let length = time - times[parent];
        self.lengths.push(length);
        self.parent.push(parent);
        self.times.push(time);
    }

    /// Forgets every arrival below global index `end` (served-out trees).
    /// The dead prefix is shifted out only once it is at least half the
    /// columns, so each node moves at most once on average and the
    /// capacity, once grown, is reused in place.
    fn release_below(&mut self, end: usize) {
        let dead = end - self.offset;
        if 2 * dead >= self.times.len() {
            self.parent.drain(..dead);
            self.times.drain(..dead);
            self.lengths.drain(..dead);
            self.offset = end;
        }
    }
}

/// One retained merge tree, borrowed from the [`Columns`]: node `i` is
/// global arrival `base + i`, and its stream starts at `times[i]`.
#[derive(Debug)]
struct Tree<'a> {
    /// Global index of the root.
    base: usize,
    parent: &'a [usize],
    times: &'a [i64],
    lengths: &'a [i64],
}

/// Arrival-at-a-time serving engine; see the module docs for the design.
///
/// Drive it with [`push`](Self::push) per arrival and
/// [`finish`](Self::finish) once the horizon ends;
/// [`simulate_incremental`] is the batch adapter over a ready-made
/// `(forest, times)` pair.
#[derive(Debug)]
pub struct IncrementalEngine {
    media_len: u64,
    media: i64,
    config: SimConfig,
    /// Latest ingested arrival time; pushes may not move before it.
    last_time: Option<i64>,
    /// Arrivals ingested so far (also the next global index).
    n: usize,
    /// Deadline cursor: next client to evaluate and emit.
    ci: usize,
    /// Root (global index) of the tree accepting arrivals; it spans up
    /// to `n`.
    open: Option<usize>,
    /// Arrival ranges of the closed trees with clients still awaiting
    /// their deadlines, oldest first.
    closed: VecDeque<Range<usize>>,
    /// Every retained tree's nodes.
    columns: Columns,
    /// Start slots of the positive-length streams of *closed* trees, in
    /// order (they are arrival times), drained strictly below the latest
    /// closing root's arrival time together with `ends`.
    starts: VecDeque<i64>,
    /// End slots of the same streams, as a min-heap (an end always lies
    /// past its own start, so it never drains first).
    ends: BinaryHeap<Reverse<i64>>,
    /// Streams live at the latest drained instant.
    active: u32,
    /// High-water mark of `active`.
    peak: u32,
    total_units: i64,
    max_open_trees: usize,
    scratch: EngineScratch,
}

impl IncrementalEngine {
    /// A fresh engine for a media of `media_len` parts.
    /// `config.buffer_bound` is honored; `config.engine` is ignored (this
    /// *is* the incremental engine).
    pub fn new(media_len: u64, config: SimConfig) -> Result<Self, SimError> {
        let media = checked_media_len(media_len)?;
        Ok(Self {
            media_len,
            media,
            config,
            last_time: None,
            n: 0,
            ci: 0,
            open: None,
            closed: VecDeque::new(),
            columns: Columns::default(),
            starts: VecDeque::new(),
            ends: BinaryHeap::new(),
            active: 0,
            peak: 0,
            total_units: 0,
            max_open_trees: 0,
            scratch: EngineScratch::default(),
        })
    }

    /// Arrivals ingested so far.
    pub fn arrivals(&self) -> usize {
        self.n
    }

    /// Trees currently retained: the open one plus closed trees whose
    /// clients are still inside their playback windows.
    pub fn open_trees(&self) -> usize {
        self.closed.len() + usize::from(self.open.is_some())
    }

    /// High-water mark of [`open_trees`](Self::open_trees) so far.
    pub fn max_open_trees(&self) -> usize {
        self.max_open_trees
    }

    /// Ingests one arrival at `time`, first streaming out every report
    /// whose last part-deadline falls strictly before `time`.
    ///
    /// Times must be nondecreasing (ties welcome — simultaneous arrivals
    /// are the model's bread and butter); a backwards push is rejected
    /// with [`IngestError::OutOfOrder`] and changes nothing. A rejected
    /// attach ([`IngestError::ParentNotOpen`]) likewise leaves the engine
    /// as it was, so a serving loop can drop the request and carry on.
    pub fn push<F: FnMut(ClientReport)>(
        &mut self,
        time: i64,
        attach: Attach,
        mut emit: F,
    ) -> Result<(), IngestError> {
        if let Some(last) = self.last_time {
            if time < last {
                return Err(IngestError::OutOfOrder { time, last });
            }
        }
        self.fire_deadlines(Some(time), &mut emit)?;
        match attach {
            Attach::Root => {
                self.close_open(Some(time));
                self.columns.push_root(time, self.media);
                self.open = Some(self.n);
            }
            Attach::Under(parent) => {
                let node = self.n;
                let not_open = IngestError::ParentNotOpen { node, parent };
                let base = self.open.ok_or(not_open.clone())?;
                let local = parent
                    .checked_sub(base)
                    .filter(|_| parent < node)
                    .ok_or(not_open)?;
                self.columns.attach(base, time, local);
            }
        }
        self.n += 1;
        self.last_time = Some(time);
        self.max_open_trees = self.max_open_trees.max(self.open_trees());
        Ok(())
    }

    /// Ends the horizon: fires every pending deadline, closes the open
    /// tree, drains the bandwidth events, and returns the aggregates.
    pub fn finish<F: FnMut(ClientReport)>(
        mut self,
        mut emit: F,
    ) -> Result<IncrementalSummary, SimError> {
        self.fire_deadlines(None, &mut emit)?;
        self.close_open(None);
        Ok(IncrementalSummary {
            summary: StreamingSummary {
                peak_streams: self.peak,
                total_units: self.total_units,
                clients: self.n,
            },
            max_open_trees: self.max_open_trees,
        })
    }

    /// Evaluates and emits clients in arrival-index order (which is
    /// deadline order, since times are nondecreasing) while their deadline
    /// `t_c + L` lies strictly before `before` — or all of them when
    /// `before` is `None`. Served-out closed trees are dropped from the
    /// front as the cursor passes them.
    fn fire_deadlines<F: FnMut(ClientReport)>(
        &mut self,
        before: Option<i64>,
        emit: &mut F,
    ) -> Result<(), SimError> {
        while self.ci < self.n {
            if before.is_some_and(|h| self.columns.time(self.ci) + self.media >= h) {
                return Ok(());
            }
            // The next unserved client always lives in the *front* closed
            // tree (earlier trees were dropped exactly when served out),
            // or in the open tree once no closed tree is left.
            let Some(range) = self
                .closed
                .front()
                .cloned()
                .or(self.open.map(|base| base..self.n))
            else {
                debug_assert!(false, "client {} has no retained tree", self.ci);
                return Ok(());
            };
            debug_assert!(range.contains(&self.ci));
            let tree = self.columns.tree(range);
            let local = self.ci - tree.base;
            // Tentative lengths are safe for open-tree clients: every length
            // a client reads can only grow past demands fixed at its arrival.
            emit(eval_client(
                tree,
                local,
                self.media_len,
                self.config,
                &mut self.scratch,
            )?);
            self.ci += 1;
            if self.closed.front().is_some_and(|t| t.end == self.ci) {
                self.closed.pop_front();
                self.columns.release_below(self.ci);
            }
        }
        Ok(())
    }

    /// Closes the open tree (if any): its lengths are now final, so its
    /// streams enter the bandwidth queues and its units the total; it is
    /// retained only if unserved clients remain. Then drains every
    /// bandwidth event strictly below `horizon` (all of them for `None`) —
    /// sound because every event a future push can add lies at or past
    /// the closing root's arrival time.
    fn close_open(&mut self, horizon: Option<i64>) {
        if let Some(base) = self.open.take() {
            let open = self.columns.tree(base..self.n);
            for (&start, &length) in open.times.iter().zip(open.lengths) {
                if length > 0 {
                    self.starts.push_back(start);
                    self.ends.push(Reverse(start + length));
                }
                self.total_units += length;
            }
            if self.ci < self.n {
                self.closed.push_back(base..self.n);
            } else {
                self.columns.release_below(self.n);
            }
        }
        loop {
            let t = match (self.starts.front(), self.ends.peek()) {
                (Some(&s), Some(&Reverse(e))) => s.min(e),
                (Some(&s), None) => s,
                (None, Some(&Reverse(e))) => e,
                (None, None) => break,
            };
            if horizon.is_some_and(|h| t >= h) {
                break;
            }
            // Net the whole instant, ends before starts, then take the
            // peak once: a back-to-back handoff is no change.
            while self.ends.peek().is_some_and(|&Reverse(e)| e == t) {
                self.ends.pop();
                self.active -= 1;
            }
            while self.starts.front() == Some(&t) {
                self.starts.pop_front();
                self.active += 1;
            }
            self.peak = self.peak.max(self.active);
        }
    }
}

/// Replays a batch `(forest, times)` pair through the push interface, in
/// global arrival order — the path every batch entry point
/// ([`super::simulate_with`], [`super::simulate_streaming`]) takes on
/// sorted times.
///
/// `times` must be nondecreasing (the push interface's clock contract);
/// reports, summary and first error are then bit-identical to the
/// [`dense`](super::dense) oracle's.
pub fn simulate_incremental<F: FnMut(ClientReport)>(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    mut emit: F,
) -> Result<IncrementalSummary, IngestError> {
    if times.len() != forest.total_arrivals() {
        return Err(IngestError::Sim(SimError::Model(
            ModelError::TimesLengthMismatch {
                nodes: forest.total_arrivals(),
                times: times.len(),
            },
        )));
    }
    let mut engine = IncrementalEngine::new(media_len, config)?;
    for (range, tree) in forest.iter_with_ranges() {
        let base = range.start;
        for local in 0..tree.len() {
            let attach = match tree.parent(local) {
                None => Attach::Root,
                Some(p) => Attach::Under(base + p),
            };
            engine.push(times[base + local], attach, &mut emit)?;
        }
    }
    engine.finish(&mut emit).map_err(IngestError::Sim)
}

/// Reusable per-client evaluation buffers: one allocation set for a whole
/// run instead of one per client. The receiving program is held in
/// struct-of-arrays form (`seg_stream`/`seg_first`/`seg_last` parallel
/// columns) — the column counterpart of `ReceivingProgram`, rebuilt in
/// place with identical output and identical `verify` semantics. Shared
/// across every client of an [`IncrementalEngine`] run.
#[derive(Debug, Default)]
struct EngineScratch {
    /// Root path of the client under evaluation (local indices).
    path: Vec<usize>,
    /// Receiving-program segments in part order, struct-of-arrays: source
    /// stream (local index), first and last part (1-based, inclusive).
    seg_stream: Vec<usize>,
    seg_first: Vec<i64>,
    seg_last: Vec<i64>,
    /// Interval start slots, sorted ascending.
    starts: Vec<i64>,
    /// Exclusive interval end slots (`hi + 1`), sorted ascending.
    ends: Vec<i64>,
}

impl EngineScratch {
    /// Rebuilds `client`'s receiving program into the segment columns and
    /// verifies it in the same pass — the struct-of-arrays fusion of
    /// `ReceivingProgram::rebuild` + `verify`: bit-identical segments and
    /// errors (rebuild is infallible and verify rejects at the first
    /// offending segment in part order — exactly the order segments are
    /// generated here, so checking each segment as it is built reports the
    /// identical first error), no per-client allocation once the columns
    /// have capacity.
    fn rebuild_and_verify_program(
        &mut self,
        parent: &[usize],
        times: &[i64],
        media: i64,
        client: usize,
    ) -> Result<(), ModelError> {
        debug_assert_eq!(times.len(), parent.len());
        self.path.clear();
        let mut cur = client;
        self.path.push(cur);
        while cur != 0 {
            cur = parent[cur];
            self.path.push(cur);
        }
        self.path.reverse();
        let path = &self.path;
        let k = path.len() - 1;
        let tk = times[path[k]];
        let client_time = times[client];
        self.seg_stream.clear();
        self.seg_first.clear();
        self.seg_last.clear();
        let mut expected = 1i64;
        // j runs from the client's own stream (j = k) down to the root;
        // the three path times each closed form reads (`t_{j+1}`, `t_j`,
        // `t_{j−1}`) shift through registers so each level costs a single
        // `times` load.
        let mut t_above = tk;
        let mut tj = tk;
        for j in (0..=k).rev() {
            let t_below = if j == 0 { 0 } else { times[path[j - 1]] };
            let first = 2 * tk - t_above - tj + 1;
            let last = if j == 0 { media } else { 2 * tk - tj - t_below };
            self.seg_stream.push(path[j]);
            self.seg_first.push(first);
            self.seg_last.push(last);
            if last >= first {
                if first < 1 || last > media {
                    let part = if first < 1 { first } else { last };
                    return Err(ModelError::PartOutOfRange { part });
                }
                if first != expected {
                    return Err(ModelError::CoverageGap {
                        expected_part: expected,
                        found_part: first,
                    });
                }
                // Timeliness: part q is received during slot
                // [t_stream + q − 1, t_stream + q) and played during
                // [t_client + q − 1, t_client + q); the source must not be
                // later than the client (guaranteed by parent < child,
                // re-checked here against the actual times).
                if tj > client_time {
                    return Err(ModelError::ParentNotEarlier {
                        node: client,
                        parent: path[j],
                    });
                }
                expected = last + 1;
            }
            t_above = tj;
            tj = t_below;
        }
        if expected != media + 1 {
            return Err(ModelError::CoverageGap {
                expected_part: expected,
                found_part: media + 1,
            });
        }
        Ok(())
    }

    /// Sorts the endpoint views if needed. The hot path pushes endpoints in
    /// part order, which the closed forms keep sorted for every program the
    /// verify pass admits on sorted arrivals, so the common case is a single
    /// ordered scan with no swap; the sorts only fire on adversarial inputs
    /// (and produce exactly what sorting the part-order endpoints always
    /// produced, so behavior is unchanged either way).
    fn sort_endpoints(&mut self) {
        if !self.starts.is_sorted() {
            self.starts.sort_unstable();
        }
        if !self.ends.is_sorted() {
            self.ends.sort_unstable();
        }
    }
}

/// Everything one merged endpoint walk learns about a client's reception.
#[derive(Debug, Default, PartialEq, Eq)]
struct SweepOutcome {
    /// Peak concurrent receptions (≤ 2 when compliant).
    max_concurrent: usize,
    /// Maximum of `received(τ) − played(τ)` over the playback window.
    max_buffer: i64,
    /// First `(slot, count)` where concurrency exceeded two, if any.
    violation: Option<(i64, i64)>,
}

/// Receive-two compliance *and* peak buffer occupancy in a single merged
/// walk over the sorted interval endpoints.
///
/// The concurrency half reproduces exactly the change-points (and the first
/// violating slot) of the sparse reception profile the dense scan is pinned
/// against. The buffer half exploits that `received(τ) − played(τ)` is
/// piecewise linear with slope `open_count − 1` between endpoints: for any
/// *verified* program every interval endpoint lies inside the playback
/// window `[t_c, t_c + L]` (`lo = 2t_c − t_above ≥ t_c` since every source
/// on the path arrives no later than the client, and `hi + 1 = t_j + last ≤
/// t_c + L` since `last ≤ L`), so the window clamps the former standalone
/// sweep applied are provably no-ops and the running integral evaluated at
/// each endpoint visits every candidate maximum (the window bounds
/// themselves can never beat the endpoint values: before the first `lo` and
/// after the last `hi + 1` the buffer only drains).
fn endpoint_sweep(scratch: &EngineScratch, t_c: i64, media: i64) -> SweepOutcome {
    let (starts, ends) = (&scratch.starts, &scratch.ends);
    debug_assert!(starts.first().is_none_or(|&lo| lo >= t_c));
    debug_assert!(ends.last().is_none_or(|&e| e <= t_c + media));
    let (mut si, mut ei) = (0usize, 0usize);
    let mut count = 0i64;
    let mut out = SweepOutcome::default();
    let mut prev = t_c;
    let mut buf = 0i64;
    while si < starts.len() || ei < ends.len() {
        let slot = match (starts.get(si), ends.get(ei)) {
            (Some(&s), Some(&e)) => s.min(e),
            (Some(&s), None) => s,
            (None, Some(&e)) => e,
            // Unreachable (the loop condition keeps one side non-empty),
            // but exiting the loop is the honest fallback: the tail checks
            // still run and no panic surface is introduced.
            (None, None) => break,
        };
        // Buffer at `slot`, evaluated before the count changes: the slope
        // since the previous endpoint is `count − 1` (reception minus
        // playback).
        buf += (count - 1) * (slot - prev);
        prev = slot;
        out.max_buffer = out.max_buffer.max(buf);
        let before = count;
        while ei < ends.len() && ends[ei] == slot {
            count -= 1;
            ei += 1;
        }
        while si < starts.len() && starts[si] == slot {
            count += 1;
            si += 1;
        }
        if count != before {
            if count > 2 && out.violation.is_none() {
                out.violation = Some((slot, count));
            }
            out.max_concurrent = out.max_concurrent.max(count as usize);
        }
    }
    out
}

/// Checks one client's program against its tree's schedule and measures it,
/// in `O(segments log segments)` arithmetic — no per-slot state, no
/// allocation (everything lives in `scratch`).
fn eval_client(
    tree: Tree<'_>,
    local: usize,
    media_len: u64,
    config: SimConfig,
    scratch: &mut EngineScratch,
) -> Result<ClientReport, SimError> {
    let media = media_len as i64;
    let t_c = tree.times[local];
    let global = tree.base + local;

    scratch
        .rebuild_and_verify_program(tree.parent, tree.times, media, local)
        .map_err(SimError::Model)?;

    // Per-segment closed forms, pushing each non-empty segment's inclusive
    // receive-slot interval straight into the endpoint views.
    let mut min_slack = i64::MAX;
    scratch.starts.clear();
    scratch.ends.clear();
    for s in 0..scratch.seg_stream.len() {
        let (first, last) = (scratch.seg_first[s], scratch.seg_last[s]);
        if last < first {
            continue;
        }
        let stream = scratch.seg_stream[s];
        let (start, length) = (tree.times[stream], tree.lengths[stream]);
        // Mirrors the dense per-part loop's error precedence: for each part
        // in order, "stream too short" is checked before "stall", so the
        // first failing part decides the variant.
        if first > length {
            return Err(SimError::StreamTooShort {
                client: global,
                stream: tree.base + stream,
                part: first,
                length,
            });
        }
        if start > t_c {
            return Err(SimError::Stall {
                client: global,
                part: first,
                received: start + first - 1,
                deadline: t_c + first - 1,
            });
        }
        if last > length {
            return Err(SimError::StreamTooShort {
                client: global,
                stream: tree.base + stream,
                part: length + 1,
                length,
            });
        }
        // Part q arrives at the end of slot t_j + q − 1 and plays in slot
        // t_c + q − 1: slack is t_c − t_j for every part of the segment.
        min_slack = min_slack.min(t_c - start);
        scratch.starts.push(start + first - 1);
        scratch.ends.push(start + last);
    }
    scratch.sort_endpoints();

    // Receive-two (segment intervals may overlap at most pairwise — the
    // first endpoint whose net coverage exceeds 2 is exactly the slot the
    // dense scan reports) and buffer occupancy (received(τ) − played(τ)
    // maximized over the playback window; a part received in slot τ′ is
    // *in hand* from τ′ + 1 on), both from one merged endpoint walk.
    let sweep = endpoint_sweep(scratch, t_c, media);
    if let Some((slot, count)) = sweep.violation {
        return Err(SimError::ReceiveTwoViolation {
            client: global,
            slot,
            count: count as usize,
        });
    }
    let max_buffer = sweep.max_buffer;

    if let Some(bound) = config.buffer_bound {
        if max_buffer > bound as i64 {
            return Err(SimError::BufferOverflow {
                client: global,
                needed: max_buffer,
                bound,
            });
        }
    }
    Ok(ClientReport {
        client: global,
        max_buffer,
        max_concurrent: sweep.max_concurrent,
        min_slack,
    })
}

#[cfg(test)]
mod tests {
    use super::super::simulate_with;
    use super::*;
    use crate::metrics::BandwidthProfile;
    use sm_core::{consecutive_slots, MergeTree, ReceivingProgram};

    fn fig4_forest() -> MergeForest {
        MergeForest::single(
            MergeTree::from_parents(&[
                None,
                Some(0),
                Some(0),
                Some(0),
                Some(3),
                Some(0),
                Some(5),
                Some(5),
            ])
            .unwrap(),
        )
    }

    /// The engine against the dense oracle on sorted times; pins summary,
    /// reports, emission order (= index order) and the first error.
    fn assert_matches_dense(forest: &MergeForest, times: &[i64], media_len: u64) {
        let expected = simulate_with(forest, times, media_len, SimConfig::dense());
        let mut inc = Vec::new();
        let got = simulate_incremental(forest, times, media_len, SimConfig::default(), |r| {
            inc.push(r)
        });
        match (expected, got) {
            (Ok(report), Ok(isummary)) => {
                assert_eq!(isummary.summary.peak_streams, report.bandwidth.peak());
                assert_eq!(isummary.summary.total_units, report.total_units);
                assert_eq!(isummary.summary.clients, report.clients.len());
                assert_eq!(inc, report.clients, "reports and emission order must pin");
            }
            (Err(e), Err(IngestError::Sim(ie))) => assert_eq!(ie, e),
            (e, g) => panic!("engines disagree on outcome: {e:?} vs {g:?}"),
        }
    }

    #[test]
    fn fig4_pins_against_the_dense_oracle() {
        let forest = fig4_forest();
        assert_matches_dense(&forest, &consecutive_slots(8), 15);
    }

    #[test]
    fn multi_tree_with_gaps_and_ties_pins() {
        let t = MergeTree::from_parents(&[None, Some(0), Some(1), Some(0)]).unwrap();
        let forest = MergeForest::from_trees(vec![t.clone(), t, MergeTree::singleton()]).unwrap();
        // Ties within a tree, a tie across the tree boundary, and a gap.
        let times = vec![0, 0, 2, 2, 2, 3, 3, 5, 40];
        assert_matches_dense(&forest, &times, 12);
    }

    #[test]
    fn tied_co_arrival_gains_its_stream_retroactively() {
        // Arrival 1 ties with the root: its tentative stream has length 0.
        // Arrival 2 then merges under it, so stream 1 must retroactively
        // start (length 2·7 − 5 − 5 = 4) — the case that forces bandwidth
        // events to wait for tree closure.
        let tree = MergeTree::from_parents(&[None, Some(0), Some(1)]).unwrap();
        let forest = MergeForest::single(tree);
        assert_matches_dense(&forest, &[5, 5, 7], 20);
    }

    #[test]
    fn deep_chain_pins() {
        let media = 40u64;
        let c = (media / 2 + 1) as usize;
        let forest = MergeForest::single(MergeTree::chain(c));
        assert_matches_dense(&forest, &consecutive_slots(c), media);
    }

    #[test]
    fn buffer_bound_error_pins() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let cfg = SimConfig {
            buffer_bound: Some(1),
            ..SimConfig::dense()
        };
        let dense = simulate_with(&forest, &times, 15, cfg).unwrap_err();
        let got = simulate_incremental(&forest, &times, 15, cfg, |_| {}).unwrap_err();
        assert_eq!(got, IngestError::Sim(dense));
    }

    #[test]
    fn ingest_errors_map_to_typed_sim_errors() {
        let sim = SimError::MediaLenOverflow { media_len: 7 };
        assert_eq!(SimError::from(IngestError::Sim(sim.clone())), sim);
        assert_eq!(
            SimError::from(IngestError::OutOfOrder { time: 1, last: 2 }),
            SimError::Model(ModelError::TimesNotSorted)
        );
        assert_eq!(
            SimError::from(IngestError::ParentNotOpen { node: 4, parent: 1 }),
            SimError::Model(ModelError::ParentNotEarlier { node: 4, parent: 1 })
        );
    }

    #[test]
    fn out_of_order_push_is_rejected_and_harmless() {
        let mut eng = IncrementalEngine::new(10, SimConfig::default()).unwrap();
        eng.push(5, Attach::Root, |_| {}).unwrap();
        let err = eng.push(4, Attach::Root, |_| {}).unwrap_err();
        assert_eq!(err, IngestError::OutOfOrder { time: 4, last: 5 });
        // The clock and structure are untouched: a tie still goes through.
        eng.push(5, Attach::Under(0), |_| {}).unwrap();
        assert_eq!(eng.arrivals(), 2);
    }

    #[test]
    fn attach_outside_the_open_tree_is_rejected() {
        let mut eng = IncrementalEngine::new(10, SimConfig::default()).unwrap();
        let err = eng.push(0, Attach::Under(0), |_| {}).unwrap_err();
        assert_eq!(err, IngestError::ParentNotOpen { node: 0, parent: 0 });
        eng.push(0, Attach::Root, |_| {}).unwrap();
        eng.push(1, Attach::Root, |_| {}).unwrap();
        // Arrival 2 may not reach back into the closed tree's root 0.
        let err = eng.push(2, Attach::Under(0), |_| {}).unwrap_err();
        assert_eq!(err, IngestError::ParentNotOpen { node: 2, parent: 0 });
        // Nor name itself or the future.
        let err = eng.push(2, Attach::Under(2), |_| {}).unwrap_err();
        assert_eq!(err, IngestError::ParentNotOpen { node: 2, parent: 2 });
    }

    #[test]
    fn reports_stream_out_while_ingest_continues() {
        // Spaced singletons: by the time tree k opens, every client of
        // tree k−1 is past its deadline, so pushes interleave with emits
        // and retention stays at the open tree alone.
        let media = 5u64;
        let mut eng = IncrementalEngine::new(media, SimConfig::default()).unwrap();
        let mut emitted = Vec::new();
        for k in 0..16i64 {
            eng.push(k * 100, Attach::Root, |r: ClientReport| {
                emitted.push(r.client)
            })
            .unwrap();
            assert_eq!(eng.open_trees(), 1, "previous trees must be dropped");
            assert_eq!(emitted.len(), k as usize);
        }
        let summary = eng.finish(|r| emitted.push(r.client)).unwrap();
        assert_eq!(emitted, (0..16).collect::<Vec<_>>());
        assert_eq!(summary.max_open_trees, 1);
        assert_eq!(summary.summary.total_units, 16 * media as i64);
    }

    #[test]
    fn back_to_back_handoff_keeps_the_peak_at_one() {
        // Root 0's stream ends in slot 5, the slot where root 1's starts:
        // the instant nets to one live stream, so the peak is 1, not 2.
        let mut eng = IncrementalEngine::new(5, SimConfig::default()).unwrap();
        eng.push(0, Attach::Root, |_| {}).unwrap();
        eng.push(5, Attach::Root, |_| {}).unwrap();
        let summary = eng.finish(|_| {}).unwrap().summary;
        assert_eq!(summary.peak_streams, 1);
        assert_eq!(summary.total_units, 10);
    }

    #[test]
    fn empty_run_matches_the_empty_batch() {
        let eng = IncrementalEngine::new(9, SimConfig::default()).unwrap();
        let summary = eng.finish(|_| {}).unwrap();
        assert_eq!(summary.summary.clients, 0);
        assert_eq!(summary.summary.total_units, 0);
        assert_eq!(summary.summary.peak_streams, 0);
        assert_eq!(summary.max_open_trees, 0);
    }

    #[test]
    fn media_len_overflow_is_rejected_at_construction() {
        assert!(matches!(
            IncrementalEngine::new(u64::MAX, SimConfig::default()).unwrap_err(),
            SimError::MediaLenOverflow { .. }
        ));
    }

    #[test]
    fn max_open_trees_tracks_overlapping_windows() {
        // Roots every slot with a long media: all windows overlap, so
        // every tree is still retained when the last one opens.
        let n = 8usize;
        let forest = MergeForest::from_trees(vec![MergeTree::singleton(); n]).unwrap();
        let times: Vec<i64> = (0..n as i64).collect();
        let summary =
            simulate_incremental(&forest, &times, 1000, SimConfig::default(), |_| {}).unwrap();
        assert_eq!(summary.max_open_trees, n);
    }

    #[test]
    fn delay_guaranteed_grid_retains_a_handful_of_trees() {
        // The §4.1 steady-state server shape: one client per slot, merged
        // by the Delay Guaranteed policy. A client waits at most L slots
        // for its deadline and DG trees span ~L slots, so only the open
        // tree and its two predecessors stay retained, however long the
        // run (the same 3 as at 10⁷ arrivals).
        let (media, n) = (100u64, 10_000usize);
        let forest = sm_online::DelayGuaranteedOnline::new(media).forest_after(n);
        let times = consecutive_slots(n);
        let summary =
            simulate_incremental(&forest, &times, media, SimConfig::default(), |_| {}).unwrap();
        assert_eq!(summary.summary.clients, n);
        assert_eq!(summary.max_open_trees, 3);
    }

    /// Quadratic reference for the endpoint sweep: evaluate occupancy at
    /// every candidate by re-summing all segments.
    fn max_buffer_quadratic(intervals: &[(i64, i64)], t_c: i64, media: i64) -> i64 {
        let occupancy = |tau: i64| -> i64 {
            let received: i64 = intervals
                .iter()
                .map(|&(lo, hi)| (tau - lo).clamp(0, hi - lo + 1))
                .sum();
            received - (tau - t_c).clamp(0, media)
        };
        let clamp_window = |tau: i64| tau.clamp(t_c, t_c + media);
        let mut max_buffer = 0i64;
        for &(lo, hi) in intervals {
            max_buffer = max_buffer.max(occupancy(clamp_window(lo)));
            max_buffer = max_buffer.max(occupancy(clamp_window(hi + 1)));
        }
        max_buffer.max(occupancy(t_c)).max(occupancy(t_c + media))
    }

    /// A scratch holding the sorted endpoint views of inclusive
    /// receive-slot `intervals`, as the hot path leaves them.
    fn scratch_with(intervals: &[(i64, i64)]) -> EngineScratch {
        let mut scratch = EngineScratch::default();
        scratch.starts.extend(intervals.iter().map(|&(lo, _)| lo));
        scratch.ends.extend(intervals.iter().map(|&(_, hi)| hi + 1));
        scratch.sort_endpoints();
        scratch
    }

    fn sweep_with(intervals: &[(i64, i64)], t_c: i64, media: i64) -> i64 {
        endpoint_sweep(&scratch_with(intervals), t_c, media).max_buffer
    }

    #[test]
    fn sweep_matches_quadratic_reference() {
        // Deterministic pseudo-random interval sets — overlapping, nested,
        // touching, deeply stacked — drawn inside the playback window, the
        // domain the verify pass establishes before the sweep ever runs
        // (every interval of a verified program lies within
        // [t_c, t_c + media]).
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let t_c = (next() % 50) as i64 - 25;
            let media = 1 + (next() % 40) as i64;
            let n = (case % 7) as usize;
            let intervals: Vec<(i64, i64)> = (0..n)
                .map(|_| {
                    let lo = t_c + (next() % media as u64) as i64;
                    let len = (next() % 12) as i64;
                    (lo, (lo + len).min(t_c + media - 1))
                })
                .collect();
            assert_eq!(
                sweep_with(&intervals, t_c, media),
                max_buffer_quadratic(&intervals, t_c, media),
                "case {case}: t_c={t_c} media={media} intervals={intervals:?}"
            );
        }
    }

    #[test]
    fn receive_two_sweep_matches_sparse_profile() {
        // Same randomized interval sets: the merged endpoint walk must see
        // exactly the change-points (and max) of the sparse profile.
        let mut state = 0x1319_8A2E_0370_7344u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let n = (case % 6) as usize;
            let intervals: Vec<(i64, i64)> = (0..n)
                .map(|_| {
                    let lo = (next() % 30) as i64;
                    (lo, lo + (next() % 10) as i64)
                })
                .collect();
            let swept = endpoint_sweep(&scratch_with(&intervals), 0, 64);
            let reference =
                BandwidthProfile::from_intervals(intervals.iter().map(|&(lo, hi)| (lo, hi + 1)));
            let first_violation = reference
                .change_points()
                .iter()
                .find(|&&(_, count)| count > 2)
                .map(|&(slot, count)| (slot, count as i64));
            assert_eq!(swept.violation, first_violation, "case {case}");
            if first_violation.is_none() {
                assert_eq!(swept.max_concurrent as u32, reference.peak(), "case {case}");
            }
        }
    }

    #[test]
    fn sweep_on_no_intervals_is_zero() {
        assert_eq!(sweep_with(&[], 5, 10), 0);
        assert_eq!(sweep_with(&[], 0, 0), 0);
    }

    #[test]
    fn soa_program_matches_receiving_program_rebuild() {
        // The scratch's SoA rebuild + verify must agree with the
        // pointer-based `ReceivingProgram` on the paper's Fig. 4 tree,
        // client by client, segment by segment.
        let tree = MergeTree::from_parents(&[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(3),
            Some(0),
            Some(5),
            Some(5),
        ])
        .unwrap();
        let times = consecutive_slots(8);
        let parent: Vec<usize> = tree.to_parents().iter().map(|p| p.unwrap_or(0)).collect();
        let mut scratch = EngineScratch::default();
        for client in 0..tree.len() {
            let prog = ReceivingProgram::build(&tree, &times, 15, client);
            let verdict = scratch.rebuild_and_verify_program(&parent, &times, 15, client);
            assert_eq!(verdict, prog.verify(&times, 15), "client {client}");
            assert_eq!(scratch.path, prog.path, "client {client}");
            let soa: Vec<(usize, i64, i64)> = (0..scratch.seg_stream.len())
                .map(|s| {
                    (
                        scratch.seg_stream[s],
                        scratch.seg_first[s],
                        scratch.seg_last[s],
                    )
                })
                .collect();
            let reference: Vec<(usize, i64, i64)> = prog
                .segments
                .iter()
                .map(|seg| (seg.stream, seg.first_part, seg.last_part))
                .collect();
            assert_eq!(soa, reference, "client {client}");
        }
    }
}
