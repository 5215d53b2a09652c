//! GB-scale batch zone scanning: file → detections, chunk-parallel.
//!
//! This is the whole-`.com`-zone workload of the paper's §5 as one
//! streaming pipeline (the QUIC-Lab `domain_extractor` shape), in three
//! stages:
//!
//! ```text
//!  reader thread          lexer threads (× L)            calling thread
//! ┌───────────────┐ n%L  ┌───────────────────────┐      ┌──────────────────────┐
//! │ fill recycled │ ──▶  │ SWAR line split       │ ──▶  │ merge, in file order:│
//! │ buffers, cut  │      │ scan_resumed per line │      │  settle the seam     │
//! │ at the last   │      │ per new owner: hash,  │      │  offset line numbers │
//! │ line start;   │      │  IDN flag, blacklist, │      │  window dedup        │
//! │ $ORIGIN       │      │  IDN ACE or TLD       │      │  blacklist drop      │
//! │ pre-pass      │      │ counts, quarantines   │      │  IDN: push into lane │
//! │               │ ◀──  │                       │ ◀──  │  other: count_non_idn│
//! └───────────────┘ free └───────────────────────┘ spare└──────────────────────┘
//!                   bufs                           outputs
//! ```
//!
//! * **Reader** — fills `channel_depth + 1` recycled buffers of
//!   `chunk_bytes` and cuts each after its last newline, carrying the
//!   partial line into the next buffer (a line longer than a buffer
//!   grows that buffer until the line ends). A *cut is a line start*.
//!   A directive pre-pass looks at every `$` that starts a line and
//!   records the `$ORIGIN` in force at the start of the next chunk,
//!   through [`origin_directive`] — the classifier the lexer itself
//!   uses. Chunk `n` goes to lexer `n % L`.
//! * **Lexers** — `L = rayon::current_num_threads()` scoped threads.
//!   Each runs a parser [resumed](ZoneStreamParser::resumed) at its
//!   chunk's cut over every line (an all-ASCII line is tokenised on its
//!   bytes; any other falls back to `split_whitespace`; once warm, a
//!   well-formed ASCII line allocates nothing, pinned by
//!   `crates/dns/tests/zone_alloc.rs`). Its output is compact and
//!   recycled: line, record, quarantine and consecutive-dedup counts,
//!   the first quarantined lines with chunk-local numbers, and one
//!   entry per new owner — FNV hash, IDN flag, blacklist verdict, and
//!   the name's ACE bytes (IDN) or its TLD (other). It holds no chunk
//!   bytes, so the buffer goes back to the reader as soon as lexing
//!   ends.
//! * **Merge** — the calling thread takes the outputs strictly in file
//!   order. It settles each chunk's *seam* from the state the previous
//!   chunks left: whether an owner is in force at the cut (which
//!   decides the continuation lines read before the chunk's first owner
//!   line — [`ResumedScan::Inherited`]) and the owner token in force
//!   (which decides whether the chunk's first owner line is a new
//!   owner). It offsets line numbers, then does the window dedup,
//!   blacklist drop and routing a line-at-a-time pass would do.
//!
//! Every [`ScanReport`] is therefore the same at any thread count and
//! chunk size — router report, per-TLD counters (but `elapsed_secs`)
//! and quarantine samples: a resumed parser decides every line that
//! does not depend on the cut exactly as one parser over the whole
//! file would, the two facts that do depend on it are settled in file
//! order, and dedup and routing run in file order on one thread.
//! `tests/scan_zone.rs` pins this against a line-at-a-time replay at
//! 1, 2 and 4 threads, on hostile layouts and at every cut.
//!
//! * **Bounded memory** — chunk bytes in flight are the `depth + 1`
//!   buffers; each lexer owns two outputs of at most 4,096 owners
//!   (a chunk with more goes over in several), which the merge hands
//!   back. Only a single line longer than a buffer grows one, to that
//!   line.
//! * **Pre-detection dedup** — zone dumps repeat each owner once per
//!   record (NS runs, glue); consecutive repeats are flagged for free by
//!   the parser's owner cache, and out-of-order repeats are caught by a
//!   bounded window of owner hashes.
//! * **IDN prefilter** — only an owner with an `xn--` label can be a
//!   homograph (the paper's Step 2), and in a `.com` dump that is about
//!   one owner in 200. An IDN owner that survives dedup and the
//!   blacklist is rebuilt from its ACE bytes into one reused name and
//!   cloned once, into its TLD's router lane batch.
//!   Every other owner is only counted: [`SessionRouter::count_non_idn`]
//!   opens the owner's own TLD lane (or counts it unrouted under a
//!   fixed lane set), adds it to the lane's domain total and advances
//!   the lane's flush trigger — the same books, and the same detection
//!   batches, a push of every owner would give.
//! * **Accounting invariant** — every parsed line is accounted for:
//!   `records + quarantined == routed + deduped + blacklisted +
//!   quarantined` per TLD ([`TldScanStats::is_accounted`]); the CLI and
//!   tests close the books on it. `routed` counts every owner entered
//!   into the router's books, IDN or not, so summed over all files it
//!   still equals the router's `total_domains()` and the identity needs
//!   no separate term for the counted-only owners.
//!
//! Lane batches flush at the router's configured batch capacity
//! ([`SessionRouter::with_batch_capacity`]), counted in owners routed
//! to the lane, IDN or not — so detection batches are the ones a push
//! of every owner would cut.
//!
//! shambench's `dns.lex_s` replays the lexer alone on one thread by
//! design, so lexing on more threads moves only its end-to-end figures
//! (`scan_mb_per_s`, `traced.scan_mb_per_s`), not `dns.lex_s`.

use crate::router::{RouterReport, SessionRouter};
use serde::{Deserialize, Serialize};
use sham_dns::zone::{
    origin_directive, ResumedScan, ZoneScan, ZoneStreamParser, NO_PREVIOUS_OWNER,
};
use sham_punycode::DomainName;
use sham_web::Blacklist;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, Read};
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Tuning knobs for [`ZoneScanner`]. `Default` is sized for multi-GB
/// files on spinning or networked storage.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Bytes per read chunk (default 1 MiB; floored at 4 KiB).
    pub chunk_bytes: usize,
    /// Chunk buffers in flight beyond the one being read (default 4;
    /// floored at 2). The scanner owns exactly `channel_depth + 1`
    /// buffers of `chunk_bytes`, shared by the reader and the lexer
    /// threads — the whole byte budget of chunks in flight, whatever
    /// the thread count.
    pub channel_depth: usize,
    /// Out-of-order dedup window: how many recent owner hashes are
    /// remembered (default 8192; 0 disables the window — consecutive
    /// dedup still applies).
    pub dedup_window: usize,
    /// Not read by the scanner: it keeps no batch of its own (IDN
    /// owners go straight into their router lane, every other owner is
    /// only counted), so lane batching is the router's
    /// [`with_batch_capacity`](SessionRouter::with_batch_capacity).
    /// Kept so existing `ScanConfig` literals still compile.
    pub batch_capacity: usize,
    /// Cap on quarantined-line samples kept for the report.
    pub quarantine_samples: usize,
    /// Suffix blacklists applied before detection; a domain matching
    /// any feed is counted and dropped.
    pub blacklists: Vec<Blacklist>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            chunk_bytes: 1 << 20,
            channel_depth: 4,
            dedup_window: 8_192,
            batch_capacity: crate::router::DEFAULT_ROUTER_BATCH,
            quarantine_samples: 8,
            blacklists: Vec::new(),
        }
    }
}

/// Per-TLD accounting for one scan run. Every counter is in *lines*
/// except `bytes`; `records` are well-formed record lines only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TldScanStats {
    /// Bytes consumed from this TLD's files.
    pub bytes: u64,
    /// Raw lines seen (blank/comment/directive lines included).
    pub lines: u64,
    /// Well-formed record lines.
    pub records: u64,
    /// Malformed or non-UTF-8 lines, skipped and counted.
    pub quarantined: u64,
    /// Records dropped because the owner repeated the previous line's.
    pub dedup_consecutive: u64,
    /// Records dropped by the bounded out-of-order owner window.
    pub dedup_window: u64,
    /// Records dropped by a blacklist suffix match.
    pub blacklisted: u64,
    /// Owners entered into the router's books — IDN or not. IDNs join
    /// a lane batch for detection; every other owner is counted by
    /// [`SessionRouter::count_non_idn`] without being cloned.
    pub routed: u64,
    /// Wall-clock seconds spent scanning this TLD's files.
    pub elapsed_secs: f64,
}

impl TldScanStats {
    /// Lines that reached the record machine: records + quarantined.
    pub fn parsed(&self) -> u64 {
        self.records + self.quarantined
    }

    /// Records dropped by either dedup stage.
    pub fn deduped(&self) -> u64 {
        self.dedup_consecutive + self.dedup_window
    }

    /// The closing side of the books: routed + deduped + blacklisted
    /// + quarantined.
    pub fn accounted(&self) -> u64 {
        self.routed + self.deduped() + self.blacklisted + self.quarantined
    }

    /// The `records_accounted` invariant: every parsed line is routed,
    /// deduplicated, blacklisted, or quarantined — nothing vanishes.
    pub fn is_accounted(&self) -> bool {
        self.parsed() == self.accounted()
    }

    /// Folds another TLD's (or file's) counters into this one.
    pub fn merge(&mut self, other: &TldScanStats) {
        self.bytes += other.bytes;
        self.lines += other.lines;
        self.records += other.records;
        self.quarantined += other.quarantined;
        self.dedup_consecutive += other.dedup_consecutive;
        self.dedup_window += other.dedup_window;
        self.blacklisted += other.blacklisted;
        self.routed += other.routed;
        self.elapsed_secs += other.elapsed_secs;
    }
}

/// Everything a finished scan knows: the router's detection report plus
/// the scanner's own per-TLD accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanReport {
    /// Detection outcome (per-TLD lanes, detections, exec stats).
    pub router: RouterReport,
    /// Scanner-side accounting, keyed by TLD.
    pub per_tld: BTreeMap<String, TldScanStats>,
    /// First few quarantined-line diagnostics (bounded).
    pub quarantine_samples: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

impl ScanReport {
    /// All TLD counters folded together.
    pub fn totals(&self) -> TldScanStats {
        let mut t = TldScanStats::default();
        for s in self.per_tld.values() {
            t.merge(s);
        }
        t
    }

    /// Total detections across all lanes.
    pub fn detection_count(&self) -> usize {
        self.router.detection_count()
    }

    /// Checks the accounting invariant on every TLD, naming the first
    /// TLD whose books don't close.
    pub fn verify_accounting(&self) -> Result<(), String> {
        for (tld, s) in &self.per_tld {
            if !s.is_accounted() {
                return Err(format!(
                    "accounting broken for .{tld}: parsed {} != accounted {} \
                     (routed {} + dedup {} + blacklisted {} + quarantined {})",
                    s.parsed(),
                    s.accounted(),
                    s.routed,
                    s.deduped(),
                    s.blacklisted,
                    s.quarantined
                ));
            }
        }
        Ok(())
    }
}

/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over the owner's ACE bytes (already lowercase) — keys the
/// bounded dedup window.
#[inline]
fn owner_hash(owner: &DomainName) -> u64 {
    owner
        .as_ascii()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(FNV_PRIME)
        })
}

/// The dedup window's hasher: its keys are FNV-1a hashes already, so a
/// `u64` key hashes to itself.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The bounded out-of-order dedup window: the FNV-1a hashes of the
/// most recent new owners, oldest first.
#[derive(Default)]
struct OwnerWindow {
    order: VecDeque<u64>,
    set: HashSet<u64, BuildHasherDefault<PassThrough>>,
}

impl OwnerWindow {
    /// `false` when `hash` is already in the window; otherwise enters
    /// it, evicting the oldest hash once `capacity` are held.
    fn admit(&mut self, hash: u64, capacity: usize) -> bool {
        if self.set.contains(&hash) {
            return false;
        }
        if self.order.len() >= capacity {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        self.order.push_back(hash);
        self.set.insert(hash);
        true
    }
}

/// Word-at-a-time byte finder (SWAR: subtract-and-mask zero-byte
/// detection on 8-byte words) — the line splitter's and the directive
/// pre-pass's inner loop.
#[inline]
fn find_byte(haystack: &[u8], byte: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let head_len = haystack.len() & !7;
    let mut i = 0;
    while i < head_len {
        let word = u64::from_le_bytes(haystack[i..i + 8].try_into().unwrap());
        let x = word ^ (LO * byte as u64);
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(i + (zero.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    haystack[head_len..]
        .iter()
        .position(|&b| b == byte)
        .map(|p| head_len + p)
}

/// Whole lines cut from the input, with the `$ORIGIN` in force at the
/// first of them. Recycled between the reader and the lexers.
struct Chunk {
    bytes: Vec<u8>,
    origin: String,
}

/// What the reader deals a lexer.
enum Cut {
    Chunk(Chunk),
    /// The input failed. The `u64` counts the bytes read after the last
    /// chunk: a partial line that no chunk holds.
    Failed(io::Error, u64),
}

/// What a lexer hands the merge, in the order it was dealt.
enum Lexed {
    Chunk(Box<LexedChunk>),
    Failed(io::Error, u64),
}

/// The reader stage. Fills recycled buffers from `reader`, cuts each
/// after its last newline (the partial line is carried into the next
/// buffer; a line longer than a buffer grows it until the line ends),
/// stamps each chunk with the origin in force at its first byte, and
/// deals chunk `n` to lexer `n % lexers.len()`.
fn read_stage<R: Read>(
    mut reader: R,
    tld: &str,
    chunk_bytes: usize,
    free: mpsc::Receiver<Chunk>,
    lexers: Vec<mpsc::Sender<Cut>>,
) {
    let mut origin = tld.to_string();
    let mut carry: Vec<u8> = Vec::new();
    let mut seq = 0usize;
    while let Ok(mut chunk) = free.recv() {
        let buf = &mut chunk.bytes;
        buf.clear();
        // A buffer that held an over-long line goes back to size.
        buf.shrink_to(chunk_bytes);
        buf.extend_from_slice(&carry);
        carry.clear();
        // `Ok(true)` at end of input, `Ok(false)` once full; bytes
        // before `searched` hold no newline.
        let mut searched = 0;
        let filled: io::Result<bool> = loop {
            let len = buf.len();
            if len >= chunk_bytes {
                if buf[searched..].contains(&b'\n') {
                    break Ok(false);
                }
                searched = len;
            }
            buf.resize(
                if len < chunk_bytes {
                    chunk_bytes
                } else {
                    len + chunk_bytes
                },
                0,
            );
            match reader.read(&mut buf[len..]) {
                Ok(0) => {
                    buf.truncate(len);
                    break Ok(true);
                }
                Ok(n) => buf.truncate(len + n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => buf.truncate(len),
                Err(e) => {
                    buf.truncate(len);
                    break Err(e);
                }
            }
        };
        // Cut after the last newline; at end of input the final,
        // unterminated line goes too. On failure the complete lines
        // read so far still count.
        if !matches!(filled, Ok(true)) {
            let cut = buf.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
            carry.extend_from_slice(&buf[cut..]);
            buf.truncate(cut);
        }
        if !buf.is_empty() {
            chunk.origin.clone_from(&origin);
            track_origin(&chunk.bytes, &mut origin);
            if lexers[seq % lexers.len()].send(Cut::Chunk(chunk)).is_err() {
                return;
            }
            seq += 1;
        }
        match filled {
            Ok(false) => {}
            Ok(true) => return,
            Err(e) => {
                let _ = lexers[seq % lexers.len()].send(Cut::Failed(e, carry.len() as u64));
                return;
            }
        }
    }
}

/// The directive pre-pass: moves `origin` past every `$ORIGIN`
/// directive in `bytes`, classified exactly as the lexer classifies it
/// (one trailing `\r` dropped, valid UTF-8 only, then
/// [`origin_directive`]). Only a `$` that starts a line is looked at.
fn track_origin(bytes: &[u8], origin: &mut String) {
    let mut from = 0;
    while let Some(at) = find_byte(&bytes[from..], b'$') {
        let start = from + at;
        let end = find_byte(&bytes[start..], b'\n').map_or(bytes.len(), |n| start + n);
        from = end;
        if start > 0 && bytes[start - 1] != b'\n' {
            continue;
        }
        let line = &bytes[start..end];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if let Some(name) = std::str::from_utf8(line).ok().and_then(origin_directive) {
            origin.clear();
            origin.push_str(name);
        }
    }
}

/// A quarantined line of a chunk, for the report's samples.
struct LineError {
    /// Line number within the piece, 1-based.
    line: usize,
    kind: ErrorKind,
    message: String,
}

/// Whether a chunk's line is quarantined whatever precedes the chunk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ErrorKind {
    /// Always, with its own message.
    Own,
    /// An inherited continuation line ([`ResumedScan::Inherited`]):
    /// with its own message when an owner is in force at the cut, with
    /// [`NO_PREVIOUS_OWNER`] otherwise.
    InheritedBad,
    /// A well-formed inherited continuation line: quarantined with
    /// [`NO_PREVIOUS_OWNER`] only when no owner is in force at the cut.
    InheritedOk,
}

/// A new owner of a chunk, settled by the merge.
struct NewOwner {
    hash: u64,
    /// For an IDN, the offset of its ACE form in the output's
    /// `idn_names`; for any other owner, the index of its TLD in `tlds`.
    slot: u32,
    /// The length of an IDN's ACE form (at most 253 octets).
    len: u8,
    idn: bool,
    blacklisted: bool,
}

/// How a chunk's lines join the lines before its cut.
#[derive(Default)]
struct Seam {
    /// Whether an owner the chunk resolved is in force at the piece's
    /// end.
    resolved: bool,
    /// The owner token of its first owner-resolving line.
    first_token: String,
    /// Whether that line is the record `owners[0]` (it may instead be
    /// a line quarantined after its owner resolved).
    first_is_owner: bool,
    /// Whether an `$ORIGIN` change precedes the first owner-resolving
    /// line (in a chunk without one: occurs anywhere). It voids the
    /// owner token in force at the cut.
    origin_changed: bool,
    /// The owner token in force at the chunk's end.
    last_token: String,
}

/// What one lexer learned from one chunk — or, for a chunk of more than
/// [`OWNERS_PER_OUTPUT`] owners, from one piece of it — for the merge.
/// It borrows nothing from the chunk, so the chunk's buffer goes back
/// to the reader as soon as lexing ends; the merge hands this back to
/// its lexer, which reuses every buffer in it.
#[derive(Default)]
struct LexedChunk {
    /// Whether this is the chunk's last output.
    ends_chunk: bool,
    bytes: u64,
    /// Lines of the piece; quarantined lines are numbered within it.
    lines: usize,
    /// Counts of the lines the chunk settles on its own.
    records: u64,
    quarantined: u64,
    dedup_consecutive: u64,
    /// Inherited continuation lines, well-formed and malformed.
    inherited_ok: u64,
    inherited_bad: u64,
    /// Quarantined lines in line order: enough for the first
    /// `quarantine_samples` whether an owner is in force at the cut
    /// (`kept_owned`) or not (`kept_orphan`).
    errors: Vec<LineError>,
    kept_owned: usize,
    kept_orphan: usize,
    owners: Vec<NewOwner>,
    /// The ACE forms of the IDN owners, back to back.
    idn_names: String,
    /// The TLDs of this chunk's other owners.
    tlds: Vec<String>,
    seam: Seam,
}

impl LexedChunk {
    fn reset(&mut self, bytes: usize) {
        self.ends_chunk = false;
        self.bytes = bytes as u64;
        self.lines = 0;
        self.records = 0;
        self.quarantined = 0;
        self.dedup_consecutive = 0;
        self.inherited_ok = 0;
        self.inherited_bad = 0;
        self.errors.clear();
        self.kept_owned = 0;
        self.kept_orphan = 0;
        self.owners.clear();
        self.idn_names.clear();
        self.tlds.clear();
        self.seam.resolved = false;
        self.seam.first_token.clear();
        self.seam.first_is_owner = false;
        self.seam.origin_changed = false;
        self.seam.last_token.clear();
    }

    /// Keeps a quarantined line if it is among the first `cap` under
    /// either assumption about the owner in force at the cut.
    /// `message` is only built for a line that is kept.
    fn quarantine(
        &mut self,
        cap: usize,
        line: usize,
        kind: ErrorKind,
        message: impl FnOnce() -> String,
    ) {
        let owned = kind != ErrorKind::InheritedOk;
        if (owned && self.kept_owned < cap) || self.kept_orphan < cap {
            self.kept_owned += owned as usize;
            self.kept_orphan += 1;
            self.errors.push(LineError {
                line,
                kind,
                message: message(),
            });
        }
    }

    /// Enters a new owner: its hash, blacklist verdict, IDN flag, and
    /// either its ACE bytes (IDN) or its TLD (other).
    fn new_owner(&mut self, owner: &DomainName, blacklists: &[Blacklist]) {
        let blacklisted = blacklists
            .iter()
            .any(|bl| bl.contains_suffix(owner.as_ascii()));
        let idn = owner.is_idn();
        let slot = if blacklisted {
            0
        } else if idn {
            self.idn_names.push_str(owner.as_ascii());
            self.idn_names.len() - owner.as_ascii().len()
        } else {
            let tld = owner.tld();
            match self.tlds.iter().rposition(|t| t == tld) {
                Some(at) => at,
                None => {
                    self.tlds.push(tld.to_string());
                    self.tlds.len() - 1
                }
            }
        };
        self.owners.push(NewOwner {
            hash: owner_hash(owner),
            slot: slot as u32,
            len: if idn { owner.as_ascii().len() as u8 } else { 0 },
            idn,
            blacklisted,
        });
    }
}

/// New owners per lexer output. A chunk with more is handed over in
/// several outputs, so an output's size is bounded whatever the chunk
/// holds (1 MiB of bare owner lines has about 100k owners).
const OWNERS_PER_OUTPUT: usize = 4096;

/// Lexes one chunk with a parser resumed at its cut: every line through
/// [`ZoneStreamParser::scan_resumed`], new owners entered, quarantined
/// lines kept for the samples, and the seam recorded. Each output that
/// fills up is passed to `hand_over`, which returns a fresh one (`None`
/// once the merge is gone); the last is returned, marked `ends_chunk`.
///
/// A later output of a chunk covers the lines after the previous one.
/// Outputs fill up only with new owners, so every later output starts
/// after the chunk's first owner line: the same parser settles all its
/// lines, and only the last output's seam passes state on.
fn lex_chunk(
    chunk: &Chunk,
    blacklists: &[Blacklist],
    cap: usize,
    mut out: Box<LexedChunk>,
    mut hand_over: impl FnMut(Box<LexedChunk>) -> Option<Box<LexedChunk>>,
) -> Option<Box<LexedChunk>> {
    out.reset(chunk.bytes.len());
    let mut parser = ZoneStreamParser::resumed(&chunk.origin);
    // No owner resolved yet: continuation lines are inherited.
    let mut head = true;
    // The chunk's lines before this output's.
    let mut piece_line = 0;
    let mut rest: &[u8] = &chunk.bytes;
    while !rest.is_empty() {
        if out.owners.len() >= OWNERS_PER_OUTPUT {
            piece_line += out.lines;
            out = hand_over(out)?;
            out.reset(0);
        }
        let raw = match find_byte(rest, b'\n') {
            Some(nl) => {
                let line = &rest[..nl];
                rest = &rest[nl + 1..];
                line
            }
            None => std::mem::take(&mut rest),
        };
        out.lines += 1;
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        let Ok(text) = std::str::from_utf8(raw) else {
            out.quarantined += 1;
            let line = out.lines;
            out.quarantine(cap, line, ErrorKind::Own, || "invalid UTF-8".into());
            // Keep the parser's line numbering in step with the chunk.
            let _ = parser.scan_resumed("");
            continue;
        };
        // `Some(is_owner)` when this line resolved the chunk's first owner.
        let mut first_owner = None;
        match parser.scan_resumed(text) {
            ResumedScan::Inherited(Ok(())) => {
                out.inherited_ok += 1;
                let line = out.lines;
                out.quarantine(cap, line, ErrorKind::InheritedOk, String::new);
            }
            ResumedScan::Inherited(Err(e)) => {
                out.inherited_bad += 1;
                let line = e.line - piece_line;
                out.quarantine(cap, line, ErrorKind::InheritedBad, || e.message);
            }
            ResumedScan::Line(Ok(ZoneScan::Skip)) => {
                if head && !out.seam.origin_changed && parser.origin() != chunk.origin {
                    out.seam.origin_changed = true;
                }
            }
            ResumedScan::Line(Err(e)) => {
                out.quarantined += 1;
                let line = e.line - piece_line;
                out.quarantine(cap, line, ErrorKind::Own, || e.message);
                if head && parser.has_owner() {
                    first_owner = Some(false);
                }
            }
            ResumedScan::Line(Ok(ZoneScan::Record { owner, new_owner })) => {
                out.records += 1;
                if new_owner {
                    out.new_owner(owner, blacklists);
                    if head {
                        first_owner = Some(true);
                    }
                } else {
                    out.dedup_consecutive += 1;
                }
            }
        }
        if let Some(is_owner) = first_owner {
            head = false;
            out.seam.first_is_owner = is_owner;
            out.seam.first_token.push_str(parser.owner_token());
        }
    }
    out.seam.resolved = !head;
    out.seam.last_token.push_str(parser.owner_token());
    out.ends_chunk = true;
    Some(out)
}

/// The lexer stage: lexes the chunks it is dealt, in order, into its
/// two recycled outputs, returns each chunk's buffer to the reader and
/// passes the outputs to the merge.
fn lex_stage(
    cuts: mpsc::Receiver<Cut>,
    spare: mpsc::Receiver<Box<LexedChunk>>,
    done: mpsc::Sender<Lexed>,
    free: mpsc::Sender<Chunk>,
    blacklists: &[Blacklist],
    cap: usize,
) {
    for cut in cuts {
        let last = match cut {
            Cut::Chunk(chunk) => {
                let Ok(out) = spare.recv() else { return };
                let last = lex_chunk(&chunk, blacklists, cap, out, |full| {
                    done.send(Lexed::Chunk(full)).ok()?;
                    spare.recv().ok()
                });
                let _ = free.send(chunk);
                match last {
                    Some(out) => Lexed::Chunk(out),
                    None => return,
                }
            }
            Cut::Failed(e, unread) => Lexed::Failed(e, unread),
        };
        if done.send(last).is_err() {
            return;
        }
    }
}

/// The merge: the calling thread's side of one stream. It takes lexed
/// chunks strictly in file order, settles each chunk's seam against
/// the lines before it, and then dedups, filters and routes its new
/// owners exactly as a line-at-a-time pass would.
struct Merge<'s> {
    router: &'s mut SessionRouter,
    window: &'s mut OwnerWindow,
    window_len: usize,
    samples: &'s mut Vec<String>,
    sample_cap: usize,
    /// The IDN owner being routed, rebuilt from its ACE form.
    idn: Option<DomainName>,
    stats: TldScanStats,
    /// Lines before the next chunk.
    line_base: usize,
    /// Whether an owner is in force at the next cut, and the owner
    /// token a line must repeat there to continue it.
    owner_in_force: bool,
    owner_token: String,
}

impl Merge<'_> {
    fn take(&mut self, lexed: &LexedChunk) {
        let owned = self.owner_in_force;
        let s = &mut self.stats;
        s.bytes += lexed.bytes;
        s.lines += lexed.lines as u64;
        s.records += lexed.records;
        s.quarantined += lexed.quarantined;
        s.dedup_consecutive += lexed.dedup_consecutive;
        if owned {
            s.records += lexed.inherited_ok;
            s.dedup_consecutive += lexed.inherited_ok;
            s.quarantined += lexed.inherited_bad;
        } else {
            s.quarantined += lexed.inherited_ok + lexed.inherited_bad;
        }
        for e in &lexed.errors {
            if self.samples.len() >= self.sample_cap {
                break;
            }
            let message = match (e.kind, owned) {
                (ErrorKind::Own, _) | (ErrorKind::InheritedBad, true) => e.message.as_str(),
                (ErrorKind::InheritedOk, true) => continue,
                (_, false) => NO_PREVIOUS_OWNER,
            };
            self.samples
                .push(format!("line {}: {message}", self.line_base + e.line));
        }

        // The first owner line repeats the token in force at the cut:
        // it continues that owner rather than starting a new one.
        let seam = &lexed.seam;
        let continues = seam.first_is_owner
            && !seam.origin_changed
            && !self.owner_token.is_empty()
            && self.owner_token == seam.first_token;
        if continues {
            s.dedup_consecutive += 1;
        }
        for owner in &lexed.owners[continues as usize..] {
            if self.window_len > 0 && !self.window.admit(owner.hash, self.window_len) {
                s.dedup_window += 1;
                continue;
            }
            if owner.blacklisted {
                s.blacklisted += 1;
                continue;
            }
            // IDN prefilter: only an `xn--` owner can be a homograph,
            // and only it is cloned (once, into its lane's batch). Any
            // other owner is counted into the router's books exactly as
            // a push would count it.
            s.routed += 1;
            if owner.idn {
                let ace = &lexed.idn_names[owner.slot as usize..][..owner.len as usize];
                let name = match &mut self.idn {
                    Some(name) => {
                        name.assign(ace).expect("an owner's ACE form parses again");
                        name
                    }
                    idn => idn
                        .insert(DomainName::parse(ace).expect("an owner's ACE form parses again")),
                };
                self.router.push_domains(std::iter::once(&*name));
            } else {
                self.router.count_non_idn(&lexed.tlds[owner.slot as usize]);
            }
        }

        if seam.resolved {
            self.owner_in_force = true;
            self.owner_token.clone_from(&seam.last_token);
        } else if seam.origin_changed {
            self.owner_token.clear();
        }
        self.line_base += lexed.lines;
    }
}

/// The streaming batch scanner. Feed it files (or any reader) with
/// [`scan_file`](Self::scan_file) / [`scan_reader`](Self::scan_reader),
/// then close the books with [`finish`](Self::finish).
pub struct ZoneScanner {
    router: SessionRouter,
    config: ScanConfig,
    stats: BTreeMap<String, TldScanStats>,
    quarantine: Vec<String>,
    window: OwnerWindow,
    files: usize,
}

impl ZoneScanner {
    /// Wraps a configured router; its lane set and batch capacity
    /// govern routing and detection batches.
    pub fn new(router: SessionRouter, config: ScanConfig) -> Self {
        ZoneScanner {
            router,
            config,
            stats: BTreeMap::new(),
            quarantine: Vec::new(),
            window: OwnerWindow::default(),
            files: 0,
        }
    }

    /// Scans one zone file; the TLD (fallback `$ORIGIN`) is `tld`.
    pub fn scan_file(&mut self, tld: &str, path: &Path) -> io::Result<()> {
        let file = std::fs::File::open(path)?;
        self.scan_reader(tld, file)
    }

    /// Scans one byte stream as `tld`'s zone. I/O errors abort this
    /// stream (already-scanned lines stay accounted); parse errors
    /// quarantine single lines and continue.
    pub fn scan_reader<R: Read + Send>(&mut self, tld: &str, reader: R) -> io::Result<()> {
        let started = Instant::now();
        let chunk_bytes = self.config.chunk_bytes.max(4096);
        let depth = self.config.channel_depth.max(2);
        let lexers = rayon::current_num_threads().max(1);
        let blacklists = &self.config.blacklists[..];
        let sample_cap = self.config.quarantine_samples;
        let mut merge = Merge {
            router: &mut self.router,
            window: &mut self.window,
            window_len: self.config.dedup_window,
            samples: &mut self.quarantine,
            sample_cap,
            idn: None,
            stats: TldScanStats::default(),
            line_base: 0,
            owner_in_force: false,
            owner_token: String::new(),
        };

        let result: io::Result<()> = std::thread::scope(|s| {
            // The `depth + 1` buffers are all the chunk bytes in flight:
            // the reader fills free ones, a lexer frees each once lexed.
            let (free_tx, free_rx) = mpsc::channel::<Chunk>();
            for _ in 0..=depth {
                let _ = free_tx.send(Chunk {
                    bytes: Vec::with_capacity(chunk_bytes),
                    origin: String::new(),
                });
            }
            let mut cuts = Vec::with_capacity(lexers);
            let mut lexed = Vec::with_capacity(lexers);
            let mut spares = Vec::with_capacity(lexers);
            for _ in 0..lexers {
                let (cut_tx, cut_rx) = mpsc::channel();
                let (done_tx, done_rx) = mpsc::channel();
                let (spare_tx, spare_rx) = mpsc::channel();
                for _ in 0..2 {
                    let _ = spare_tx.send(Box::new(LexedChunk {
                        owners: Vec::with_capacity(OWNERS_PER_OUTPUT),
                        idn_names: String::with_capacity(OWNERS_PER_OUTPUT * 32),
                        ..LexedChunk::default()
                    }));
                }
                let free_tx = free_tx.clone();
                s.spawn(move || {
                    lex_stage(cut_rx, spare_rx, done_tx, free_tx, blacklists, sample_cap)
                });
                cuts.push(cut_tx);
                lexed.push(done_rx);
                spares.push(spare_tx);
            }
            drop(free_tx);
            s.spawn(move || read_stage(reader, tld, chunk_bytes, free_rx, cuts));

            // Chunk `n` comes from lexer `n % lexers`: file order.
            let mut n = 0;
            while let Ok(msg) = lexed[n % lexers].recv() {
                match msg {
                    Lexed::Chunk(out) => {
                        merge.take(&out);
                        let next = n + out.ends_chunk as usize;
                        let _ = spares[n % lexers].send(out);
                        n = next;
                    }
                    Lexed::Failed(e, unread) => {
                        merge.stats.bytes += unread;
                        return Err(e);
                    }
                }
            }
            Ok(())
        });

        let mut file_stats = merge.stats;
        file_stats.elapsed_secs = started.elapsed().as_secs_f64();
        self.stats
            .entry(tld.to_string())
            .or_default()
            .merge(&file_stats);
        self.files += 1;
        debug_assert!(
            self.stats[tld].is_accounted(),
            "scan accounting diverged for .{tld}"
        );
        result
    }

    /// Per-TLD accounting so far (books may still be open).
    pub fn stats(&self) -> &BTreeMap<String, TldScanStats> {
        &self.stats
    }

    /// Flushes every lane and closes the books.
    pub fn finish(mut self) -> ScanReport {
        self.router.flush();
        ScanReport {
            router: self.router.into_report(),
            per_tld: self.stats,
            quarantine_samples: self.quarantine,
            files: self.files,
        }
    }
}

/// Infers the TLD a zone file covers from its name: the stem up to the
/// first `.` (`com.zone`, `net.zone.txt` → `com`, `net`).
pub fn tld_from_path(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let stem = name.split('.').next()?;
    if stem.is_empty() {
        None
    } else {
        Some(stem.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionIndex;
    use sham_confusables::UcDatabase;
    use sham_glyph::SynthUnifont;
    use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
    use std::sync::Arc;

    fn shared_index(refs: &[&str]) -> Arc<DetectionIndex> {
        let font = SynthUnifont::v12();
        let result = build(
            &font,
            &BuildConfig {
                repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
                ..BuildConfig::default()
            },
        );
        DetectionIndex::shared(
            HomoglyphDb::new(result.db, UcDatabase::embedded()),
            refs.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn find_byte_matches_naive_scan() {
        let cases: &[&[u8]] = &[
            b"",
            b"\n",
            b"no newline here at all, longer than a word",
            b"tail\n",
            b"\nhead",
            b"exactly8\nbytes",
            b"0123456789abcdef\nrest\n",
            b"short",
        ];
        for case in cases {
            assert_eq!(
                find_byte(case, b'\n'),
                case.iter().position(|&b| b == b'\n'),
                "on {case:?}"
            );
        }
        // Every offset within a couple of words.
        for pos in 0..24 {
            let mut v = vec![b'x'; 24];
            v[pos] = b'\n';
            assert_eq!(find_byte(&v, b'\n'), Some(pos));
        }
    }

    /// Runs the reader over `input` with `buffers` buffers of
    /// `chunk_bytes`, handing each chunk back once seen; returns every
    /// chunk's bytes and capacity, and the origin each was stamped with.
    fn read_all(input: &[u8], chunk_bytes: usize, buffers: usize) -> Vec<(Vec<u8>, usize, String)> {
        let (free_tx, free_rx) = mpsc::channel();
        for _ in 0..buffers {
            free_tx
                .send(Chunk {
                    bytes: Vec::with_capacity(chunk_bytes),
                    origin: String::new(),
                })
                .unwrap();
        }
        let (cut_tx, cut_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || read_stage(input, "com", chunk_bytes, free_rx, vec![cut_tx]));
            let mut seen = Vec::new();
            for cut in cut_rx {
                let Cut::Chunk(chunk) = cut else {
                    panic!("in-memory reads cannot fail")
                };
                seen.push((
                    chunk.bytes.clone(),
                    chunk.bytes.capacity(),
                    chunk.origin.clone(),
                ));
                // The reader may already be done with its input.
                let _ = free_tx.send(chunk);
            }
            seen
        })
    }

    #[test]
    fn reader_holds_only_the_buffers_it_is_given() {
        // A continuation run many chunks long, with no buffer handed
        // back: the reader fills the three it has, each cut at a line
        // start and never grown, and stops.
        let mut zone = String::from("owner IN A 192.0.2.1\n");
        for i in 0..20_000 {
            zone.push_str(&format!("\tIN A 192.0.2.{}\n", i % 250));
        }
        let (free_tx, free_rx) = mpsc::channel();
        for _ in 0..3 {
            free_tx
                .send(Chunk {
                    bytes: Vec::with_capacity(4096),
                    origin: String::new(),
                })
                .unwrap();
        }
        drop(free_tx);
        let (cut_tx, cut_rx) = mpsc::channel();
        read_stage(zone.as_bytes(), "com", 4096, free_rx, vec![cut_tx]);
        let mut read = Vec::new();
        for cut in cut_rx {
            let Cut::Chunk(chunk) = cut else {
                panic!("in-memory reads cannot fail")
            };
            assert!(chunk.bytes.capacity() <= 4096 && chunk.bytes.ends_with(b"\n"));
            read.extend_from_slice(&chunk.bytes);
        }
        assert!(read.len() > 3 * 4000 && read.len() <= 3 * 4096);
        assert!(zone.as_bytes().starts_with(&read));
    }

    #[test]
    fn an_over_long_line_grows_one_buffer_to_the_line() {
        let long = format!("; {}", "x".repeat(50_000));
        let mut zone = format!("$ORIGIN net.\nhead IN A 192.0.2.1\n{long}\n");
        for i in 0..1_000 {
            zone.push_str(&format!("tail{i} IN A 192.0.2.2\r\n"));
        }
        zone.push_str("last IN A 192.0.2.3"); // unterminated
        let chunks = read_all(zone.as_bytes(), 4096, 2);
        let joined: Vec<u8> = chunks
            .iter()
            .flat_map(|(bytes, ..)| bytes.clone())
            .collect();
        assert_eq!(joined, zone.as_bytes(), "chunks reassemble the input");
        let mut grown = 0;
        for (i, (bytes, capacity, origin)) in chunks.iter().enumerate() {
            assert_eq!(origin, if i == 0 { "com" } else { "net" });
            if i + 1 < chunks.len() {
                assert!(bytes.ends_with(b"\n"), "chunk {i} is cut at a line start");
            }
            if *capacity > 4096 {
                grown += 1;
                // The line plus at most one read beyond it, doubled.
                assert!(
                    *capacity <= 2 * (long.len() + 2 * 4096),
                    "capacity {capacity}"
                );
            }
        }
        assert_eq!(grown, 1, "only the chunk holding the long line grows");
    }

    #[test]
    fn origin_pre_pass_follows_only_well_formed_directives() {
        let mut origin = String::from("com");
        track_origin(
            b"$ORIGIN net.\nx IN A 192.0.2.1 ; $ORIGIN no.\n $ORIGIN no.\n",
            &mut origin,
        );
        assert_eq!(origin, "net");
        track_origin(b"$ORIGINAL no.\n$ORIGIN a b.\n$ORIGIN \xff.\n", &mut origin);
        assert_eq!(origin, "net");
        track_origin(b"$ORIGIN org. ; c\r\n$TTL 5\n", &mut origin);
        assert_eq!(origin, "org");
        track_origin(b"$ORIGIN last.", &mut origin);
        assert_eq!(origin, "last");
    }

    #[test]
    fn io_failure_keeps_the_lines_read_before_it() {
        /// Yields its bytes in 10-byte reads, then fails.
        struct Failing<'a>(&'a [u8]);
        impl Read for Failing<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::Error::other("disk gone"));
                }
                let n = buf.len().min(10).min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let data = b"a IN A 192.0.2.1\nb IN A 192.0.2.2\npartial IN";
        let index = shared_index(&["google"]);
        let mut scanner = ZoneScanner::new(SessionRouter::new(index), ScanConfig::default());
        let e = scanner.scan_reader("com", Failing(data)).unwrap_err();
        assert_eq!(e.to_string(), "disk gone");
        let stats = scanner.stats()["com"];
        assert_eq!(
            (stats.bytes, stats.lines, stats.routed),
            (data.len() as u64, 2, 2)
        );
        assert!(stats.is_accounted());
    }

    #[test]
    fn tld_inference_from_file_names() {
        assert_eq!(
            tld_from_path(Path::new("/tmp/com.zone")),
            Some("com".into())
        );
        assert_eq!(tld_from_path(Path::new("NET.zone.txt")), Some("net".into()));
        assert_eq!(tld_from_path(Path::new("dir/org")), Some("org".into()));
        assert_eq!(tld_from_path(Path::new(".hidden")), None);
    }

    #[test]
    fn scan_accounts_dedups_blacklists_and_detects() {
        let zone = "$ORIGIN com.\n\
                    $TTL 3600\n\
                    ; synthetic sample\n\
                    xn--ggle-55da IN NS ns1.parking.example.\n\
                    xn--ggle-55da IN NS ns2.parking.example.\n\
                    \tIN A 192.0.2.1\n\
                    benign IN A 192.0.2.2\n\
                    listed IN A 192.0.2.3\n\
                    sub.listed IN A 192.0.2.4\n\
                    broken IN A not-an-ip\n\
                    benign IN AAAA 2001:db8::1\n";
        let mut blacklist = Blacklist::new("test");
        blacklist.add("listed.com");
        let config = ScanConfig {
            dedup_window: 16,
            blacklists: vec![blacklist],
            chunk_bytes: 4096,
            ..ScanConfig::default()
        };
        let index = shared_index(&["google"]);
        let mut scanner = ZoneScanner::new(SessionRouter::new(index), config);
        scanner
            .scan_reader("com", zone.as_bytes())
            .expect("in-memory scan cannot fail I/O");
        let report = scanner.finish();
        report.verify_accounting().unwrap();

        let stats = &report.per_tld["com"];
        assert_eq!(stats.lines, 11);
        assert_eq!(stats.records, 7);
        assert_eq!(stats.quarantined, 1);
        // Same-owner NS run + continuation: 2 consecutive dedups; the
        // later `benign` repeat is caught by the window.
        assert_eq!(stats.dedup_consecutive, 2);
        assert_eq!(stats.dedup_window, 1);
        // `listed` and `sub.listed` both fall to the suffix match.
        assert_eq!(stats.blacklisted, 2);
        assert_eq!(stats.routed, 2);
        assert!(stats.is_accounted());
        // The lookalike owner is detected, the benign one is not.
        assert_eq!(report.detection_count(), 1);
    }

    #[test]
    fn chunk_size_does_not_change_the_outcome() {
        let mut zone = String::from("$ORIGIN net.\n");
        for i in 0..200 {
            zone.push_str(&format!("owner{i} IN A 192.0.2.{}\n", i % 250));
            zone.push_str(&format!("owner{i} IN NS ns.owner{i}.net.\n"));
        }
        // No trailing newline on the last line.
        zone.push_str("lastone IN A 192.0.2.9");

        let index = shared_index(&["google"]);
        let mut baseline = None;
        for chunk in [4096, 4099, 1 << 16] {
            let config = ScanConfig {
                chunk_bytes: chunk,
                ..ScanConfig::default()
            };
            let mut scanner = ZoneScanner::new(SessionRouter::new(Arc::clone(&index)), config);
            scanner.scan_reader("net", zone.as_bytes()).unwrap();
            let report = scanner.finish();
            report.verify_accounting().unwrap();
            let stats = report.per_tld["net"];
            assert_eq!(stats.routed, 201);
            assert_eq!(stats.dedup_consecutive, 200);
            match &baseline {
                None => baseline = Some(report.router.clone()),
                Some(b) => assert_eq!(b, &report.router, "chunk {chunk} diverged"),
            }
        }
    }
}
