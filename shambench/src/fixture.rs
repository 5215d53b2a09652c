//! Benchmark inputs: seeded generators for the three workloads, the
//! pins on what is taken from `sham_workload`, and the oracle
//! expectations written next to the inputs.
//!
//! Everything is a pure function of the workload name and `--seed`.
//! The zone writer and the bulk world are this package's own code; the
//! dense and feed worlds come from `sham_workload` with a fixed world
//! seed and are pinned by byte length + FNV-1a digest of a canonical
//! serialization, so a generator change fails loudly instead of
//! silently changing the workload. The seed drives owner order, TLD
//! assignment, record layout and addresses.

use sham_core::{Detection, DetectionIndex, IngestEvent, RouterReport, SessionRouter};
use sham_punycode::DomainName;
use sham_workload::{
    multi_tld_event_stream, reference_list, MultiTldConfig, StreamConfig, Workload, WorkloadConfig,
    ZoneEvent,
};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Reference list size, as the CLI's default `--refs-file`.
pub const REFERENCES: usize = 10_000;
/// Registrations between reference churns (the `serve-feed` default).
pub const CHURN_EVERY: usize = 4_096;
/// Stems per churn (the `serve-feed` default).
pub const CHURN_SIZE: usize = 2;
/// Feed lanes, as `serve-feed --tlds` defaults.
pub const FEED_TLDS: [&str; 3] = ["com", "net", "org"];

/// zone_bulk: bytes of zone text to write.
const BULK_BYTES: u64 = 40 << 20;
/// zone_bulk: lookalike owners per mille.
const BULK_LOOKALIKE_PERMILLE: u64 = 5;
/// zone_bulk: malformed lines per mille.
const BULK_MALFORMED_PERMILLE: u64 = 5;

/// zone_idn_dense world: 200k ASCII + 300k IDN stems, full homograph plan.
const DENSE_WORLD: WorldPin = WorldPin {
    name: "dense world",
    config: WorkloadConfig {
        benign_ascii: 200_000,
        benign_idns: 300_000,
        reference_size: REFERENCES,
        homograph_permille: 1_000,
        seed: 0x5AC4_11FE,
    },
    pin: (7_700_639, 0x3f02_77f5_678d_96f4),
};
/// feed_churn world: the `serve-feed --events 1000000` world (seed 7).
const FEED_WORLD: WorldPin = WorldPin {
    name: "feed world",
    config: WorkloadConfig {
        benign_ascii: 900_000,
        benign_idns: 100_000,
        reference_size: 2_000,
        homograph_permille: 100,
        seed: 7,
    },
    pin: (13_038_768, 0x0963_aecf_537b_00f4),
};
/// The reference list the index is built over.
const REFS_PIN: (u64, u64) = (97_797, 0x67a2_aa1f_0f97_f9ac);
/// Trending stems the zone workloads' feeds churn through.
const CHURN_POOL_PIN: (u64, u64) = (9_657, 0x6e92_56ce_6bfe_6370);

/// A `sham_workload` world and the pin (byte length, digest) of its
/// canonical serialization.
struct WorldPin {
    name: &'static str,
    config: WorkloadConfig,
    pin: (u64, u64),
}

/// FNV-1a 64.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Byte length + digest of a canonical serialization.
fn pin_of(text: &str) -> (u64, u64) {
    (text.len() as u64, fnv(text.as_bytes()))
}

/// Compares a computed pin with the recorded one; the error names the
/// new values, for re-recording after a deliberate generator change.
fn check_pin(name: &str, got: (u64, u64), want: (u64, u64)) -> io::Result<()> {
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "pinned input changed: {name} is {} bytes, digest {:#018x}; \
                 recorded {} bytes, digest {:#018x}",
                got.0, got.1, want.0, want.1
            ),
        ));
    }
    Ok(())
}

/// The index's reference list, pinned.
pub fn references() -> io::Result<Vec<String>> {
    let refs = reference_list(REFERENCES);
    check_pin("reference list", pin_of(&refs.join("\n")), REFS_PIN)?;
    Ok(refs)
}

/// SplitMix64: small, seedable, and independent of any generator crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5348_414d_4245_4e43)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() >> 32) * n) >> 32
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// What one zone file holds, as its writer counted it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ZoneSpec {
    pub tld: String,
    pub bytes: u64,
    pub lines: u64,
    /// Well-formed record lines.
    pub records: u64,
    /// Planted malformed lines.
    pub malformed: u64,
    /// Distinct owners (each written as one run of records).
    pub owners: u64,
    /// Owners with an `xn--` label.
    pub idns: u64,
}

/// Streams a master file in the shape of a TLD dump: `$ORIGIN`/`$TTL`
/// header, then one run of 1–`max_records` records (NS, glue A, AAAA)
/// per owner.
pub struct ZoneWriter<W: Write> {
    out: W,
    spec: ZoneSpec,
    line: String,
    max_records: u64,
}

impl<W: Write> ZoneWriter<W> {
    pub fn new(out: W, tld: &str, max_records: u64) -> io::Result<Self> {
        let mut writer = ZoneWriter {
            out,
            spec: ZoneSpec {
                tld: tld.to_string(),
                ..ZoneSpec::default()
            },
            line: String::with_capacity(128),
            max_records: max_records.clamp(1, 3),
        };
        writer.emit(&format!("$ORIGIN {tld}."))?;
        writer.emit("$TTL 86400")?;
        Ok(writer)
    }

    fn emit(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.spec.bytes += line.len() as u64 + 1;
        self.spec.lines += 1;
        Ok(())
    }

    pub fn bytes(&self) -> u64 {
        self.spec.bytes
    }

    /// One owner (a relative label under the origin) with its records.
    pub fn owner(&mut self, label: &str, rng: &mut Rng) -> io::Result<()> {
        self.spec.owners += 1;
        if label.starts_with("xn--") || label.contains(".xn--") {
            self.spec.idns += 1;
        }
        let runs = 1 + rng.below(self.max_records);
        for r in 0..runs {
            let mut line = std::mem::take(&mut self.line);
            line.clear();
            let x = rng.next();
            match r {
                0 => {
                    let _ = write!(
                        line,
                        "{label}\tIN\tNS\tns{}.registrar{}.example.",
                        x % 4 + 1,
                        x % 97
                    );
                }
                1 => {
                    let _ = write!(
                        line,
                        "{label}\tIN\tA\t198.51.{}.{}",
                        x % 256,
                        (x >> 8) % 250 + 1
                    );
                }
                _ => {
                    let _ = write!(line, "{label}\tIN\tAAAA\t2001:db8::{:x}", x % 0xffff + 1);
                }
            }
            self.emit(&line)?;
            self.line = line;
            self.spec.records += 1;
        }
        Ok(())
    }

    /// One corrupt record line that any master-file reader must reject.
    /// Its owner (`junk<serial>`) is used by no other line, so whether a
    /// reader remembers it cannot change how later lines are counted.
    pub fn malformed(&mut self, serial: u64, rng: &mut Rng) -> io::Result<()> {
        self.spec.malformed += 1;
        let x = rng.next();
        let line = match rng.below(4) {
            0 => format!("junk{serial}\tIN\tA\t{}.0.2.{}", 256 + x % 700, x % 250),
            1 => format!("junk{serial}\tIN\tAAAA\t2001:db8::{:x}::1", x % 0xfff + 1),
            2 => format!("junk{serial}\tIN\tNS\tns1..registrar{}.example.", x % 97),
            _ => format!("junk{serial}\tIN\tA"),
        };
        self.emit(&line)
    }

    pub fn finish(mut self) -> io::Result<ZoneSpec> {
        self.out.flush()?;
        Ok(self.spec)
    }
}

/// Cyrillic stand-ins for Latin letters, the paper's Table 8
/// cross-script confusions.
const CYRILLIC: &[(char, char)] = &[
    ('a', 'а'),
    ('c', 'с'),
    ('e', 'е'),
    ('o', 'о'),
    ('p', 'р'),
    ('x', 'х'),
    ('y', 'у'),
];

const SYLLABLES: &[&str] = &[
    "ba", "co", "da", "fe", "gi", "ho", "ju", "ka", "li", "mo", "nu", "pa", "qu", "ra", "si", "to",
    "ur", "va", "wi", "xo", "ya", "ze", "bran", "clo", "dru", "fla", "gre", "hol", "jun", "kra",
    "lum", "mer", "nor", "pol", "quin", "rev", "sta", "tru", "vex", "wol",
];

/// A lookalike of `stem` with one or two Latin letters replaced by
/// Cyrillic ones, in ACE form; `None` if `stem` has no such letter.
fn lookalike(stem: &str, rng: &mut Rng) -> Option<String> {
    let spots: Vec<(usize, char)> = stem
        .char_indices()
        .filter_map(|(i, ch)| {
            CYRILLIC
                .iter()
                .find(|&&(lat, _)| lat == ch)
                .map(|&(_, c)| (i, c))
        })
        .collect();
    if spots.is_empty() {
        return None;
    }
    let first = rng.below(spots.len() as u64) as usize;
    let second = if spots.len() > 1 && rng.below(3) == 0 {
        Some((first + 1 + rng.below(spots.len() as u64 - 1) as usize) % spots.len())
    } else {
        None
    };
    let mut out = String::with_capacity(stem.len() + 4);
    for (i, ch) in stem.char_indices() {
        match spots.iter().position(|&(at, _)| at == i) {
            Some(k) if k == first || Some(k) == second => out.push(spots[k].1),
            _ => out.push(ch),
        }
    }
    sham_punycode::to_ascii(&out).ok()
}

/// Registration stream with churn: `owners` in order, and after every
/// [`CHURN_EVERY`] registrations a churn adding the next
/// [`CHURN_SIZE`] trending stems and removing the previous ones.
fn with_churn(owners: impl IntoIterator<Item = DomainName>, pool: &[String]) -> Vec<IngestEvent> {
    let mut events = Vec::new();
    let mut previous: Vec<String> = Vec::new();
    let mut k = 0usize;
    for (i, name) in owners.into_iter().enumerate() {
        if i > 0 && i % CHURN_EVERY == 0 {
            let added: Vec<String> = (0..CHURN_SIZE)
                .map(|j| pool[(k * CHURN_SIZE + j) % pool.len()].clone())
                .collect();
            k += 1;
            let removed = std::mem::replace(&mut previous, added.clone());
            events.push(IngestEvent::ReferenceChurn { added, removed });
        }
        events.push(IngestEvent::Registered(name));
    }
    events
}

/// Stems ranked just past the index's reference list: the trending
/// brands the zone workloads' feeds churn in and out.
fn churn_pool(refs: &[String]) -> io::Result<Vec<String>> {
    let base: HashSet<&String> = refs.iter().collect();
    let pool: Vec<String> = reference_list(REFERENCES + 2_048)
        .into_iter()
        .filter(|s| !base.contains(s))
        .take(1_024)
        .collect();
    check_pin("churn pool", pin_of(&pool.join("\n")), CHURN_POOL_PIN)?;
    Ok(pool)
}

/// Everything `prepare` writes for one workload and seed.
pub struct Fixture {
    pub zones: Vec<ZoneSpec>,
    pub events: Vec<IngestEvent>,
    /// Detected ACE names the scan must report, sorted.
    pub scan_expect: Vec<String>,
}

pub fn prepare(workload: &str, seed: u64, refs: &[String], dir: &Path) -> io::Result<Fixture> {
    std::fs::create_dir_all(dir.join("zones"))?;
    let mut rng = Rng::new(seed);
    match workload {
        "zone_bulk" => bulk(refs, &mut rng, dir),
        "zone_idn_dense" => dense(refs, &mut rng, dir),
        "feed_churn" => feed(&mut rng, dir),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}"),
        )),
    }
}

fn zone_file(
    dir: &Path,
    tld: &str,
    max_records: u64,
) -> io::Result<ZoneWriter<BufWriter<std::fs::File>>> {
    let file = std::fs::File::create(dir.join("zones").join(format!("{tld}.zone")))?;
    ZoneWriter::new(BufWriter::with_capacity(1 << 20, file), tld, max_records)
}

/// `.com`-dump shape: unique ASCII owners, 5‰ Cyrillic lookalikes of
/// reference brands, 5‰ malformed lines.
fn bulk(refs: &[String], rng: &mut Rng, dir: &Path) -> io::Result<Fixture> {
    let mut zone = zone_file(dir, "com", 3)?;
    let mut owners: Vec<DomainName> = Vec::new();
    let mut planted: Vec<String> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut serial: u64 = 0;
    while zone.bytes() < BULK_BYTES {
        serial += 1;
        if rng.below(1000) < BULK_MALFORMED_PERMILLE {
            zone.malformed(serial, rng)?;
            continue;
        }
        let mut label = None;
        if rng.below(1000) < BULK_LOOKALIKE_PERMILLE {
            let stem = &refs[rng.below(refs.len() as u64) as usize];
            label = lookalike(stem, rng).filter(|ace| seen.insert(ace.clone()));
            if let Some(ace) = &label {
                planted.push(format!("{ace}.com"));
            }
        }
        let label = label.unwrap_or_else(|| {
            let mut name = String::with_capacity(24);
            for _ in 0..2 + rng.below(3) {
                name.push_str(SYLLABLES[rng.below(SYLLABLES.len() as u64) as usize]);
            }
            // The serial keeps benign owners unique.
            let _ = write!(name, "{serial}");
            name
        });
        zone.owner(&label, rng)?;
        owners.push(DomainName::parse(&format!("{label}.com")).map_err(invalid)?);
    }
    let spec = zone.finish()?;
    planted.sort();
    let pool = churn_pool(refs)?;
    Ok(Fixture {
        zones: vec![spec],
        events: with_churn(owners, &pool),
        scan_expect: planted,
    })
}

/// The paper's world made IDN-dense: every owner of the world in a
/// seeded order; the expected detections are the ground-truth
/// homographs that are union-detectable and have an NS record.
fn dense(refs: &[String], rng: &mut Rng, dir: &Path) -> io::Result<Fixture> {
    let world = Workload::generate(DENSE_WORLD.config.clone());
    let mut canonical = String::new();
    let mut labels: Vec<String> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for stem in &world.benign_ascii {
        if seen.insert(stem.clone()) {
            labels.push(stem.clone());
        }
    }
    for stem in &world.benign_idns {
        if let Ok(ace) = sham_punycode::to_ascii(stem) {
            if seen.insert(ace.clone()) {
                labels.push(ace);
            }
        }
    }
    let mut expect: Vec<String> = Vec::new();
    for h in &world.truth.homographs {
        let has_ns = world
            .truth
            .assignments
            .get(&h.ace)
            .is_some_and(|a| a.has_ns);
        let Some(stem) = h.ace.strip_suffix(".com") else {
            continue;
        };
        if !has_ns {
            continue;
        }
        if seen.insert(stem.to_string()) {
            labels.push(stem.to_string());
        }
        if h.union_detectable() {
            expect.push(h.ace.clone());
        }
    }
    expect.sort();
    expect.dedup();
    for label in &labels {
        canonical.push_str(label);
        canonical.push('\n');
    }
    for ace in &expect {
        let _ = writeln!(canonical, "H {ace}");
    }
    check_pin(DENSE_WORLD.name, pin_of(&canonical), DENSE_WORLD.pin)?;
    drop(world);

    rng.shuffle(&mut labels);
    let mut zone = zone_file(dir, "com", 3)?;
    for label in &labels {
        zone.owner(label, rng)?;
    }
    let spec = zone.finish()?;
    let pool = churn_pool(refs)?;
    let owners = labels
        .into_iter()
        .map(|l| DomainName::parse(&(l + ".com")).map_err(invalid))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Fixture {
        zones: vec![spec],
        events: with_churn(owners, &pool),
        scan_expect: expect,
    })
}

/// `serve-feed --events 1000000`: the feed is `multi_tld_event_stream`
/// over the pinned world; the zones hold each TLD's registrations. The
/// stem multiset and churn sequence do not depend on the seed and are
/// pinned; order and TLD assignment do.
fn feed(rng: &mut Rng, dir: &Path) -> io::Result<Fixture> {
    let world = Workload::generate(FEED_WORLD.config.clone());
    let shape = MultiTldConfig {
        base: StreamConfig {
            churn_every: CHURN_EVERY,
            churn_size: CHURN_SIZE,
            seed: rng.next(),
        },
        tlds: FEED_TLDS.iter().map(|t| t.to_string()).collect(),
    };
    let stream = multi_tld_event_stream(&world, &shape);
    drop(world);

    let mut stems: Vec<&str> = Vec::new();
    let mut canonical = String::new();
    for event in &stream {
        match event {
            ZoneEvent::Registered(d) => stems.push(d.without_tld().unwrap_or("")),
            ZoneEvent::ReferenceChurn { added, removed } => {
                let _ = writeln!(canonical, "C {}|{}", added.join(","), removed.join(","));
            }
        }
    }
    stems.sort_unstable();
    for stem in &stems {
        canonical.push_str(stem);
        canonical.push('\n');
    }
    drop(stems);
    check_pin(FEED_WORLD.name, pin_of(&canonical), FEED_WORLD.pin)?;

    let mut zones = Vec::new();
    for tld in FEED_TLDS {
        // Delegations only: the feed's zones are its registrations.
        zones.push(zone_file(dir, tld, 1)?);
    }
    let mut events = Vec::with_capacity(stream.len());
    for event in stream {
        match event {
            ZoneEvent::Registered(d) => {
                let at = FEED_TLDS
                    .iter()
                    .position(|t| *t == d.tld())
                    .expect("feed TLD");
                zones[at].owner(d.without_tld().expect("registrations have a TLD"), rng)?;
                events.push(IngestEvent::Registered(d));
            }
            ZoneEvent::ReferenceChurn { added, removed } => {
                events.push(IngestEvent::ReferenceChurn { added, removed })
            }
        }
    }
    let specs = zones
        .into_iter()
        .map(|z| z.finish())
        .collect::<io::Result<Vec<_>>>()?;
    // Scan oracle: the detector over the IDN owners alone, without the
    // lexer. Filled in by `write_expectations`, which holds the index.
    Ok(Fixture {
        zones: specs,
        events,
        scan_expect: Vec::new(),
    })
}

/// Digest of a routed outcome: per lane its TLD, domain and IDN counts
/// and every detection (ACE name + reference) in order.
pub fn digest_lanes<'a>(
    lanes: impl Iterator<Item = (&'a str, usize, usize, &'a [Detection])>,
    reference_diffs: usize,
) -> u64 {
    let mut text = String::new();
    for (tld, total, idns, detections) in lanes {
        let _ = writeln!(text, "{tld} {total} {idns}");
        for d in detections {
            let _ = writeln!(text, " {} {}", d.idn_ascii, d.reference.as_str());
        }
    }
    let _ = writeln!(text, "diffs {reference_diffs}");
    fnv(text.as_bytes())
}

pub fn report_digest(report: &RouterReport) -> u64 {
    digest_lanes(
        report.per_tld.iter().map(|l| {
            (
                l.tld.as_str(),
                l.report.total_domains,
                l.report.idn_count,
                l.report.detections.as_slice(),
            )
        }),
        report.reference_diffs,
    )
}

/// The feed router `serve-feed` drains into, replayed directly over the
/// IDN registrations only: non-IDNs cannot be detected, so their
/// effect on the report is their count, which is added arithmetically.
fn expected_feed_digest(index: &Arc<DetectionIndex>, events: &[IngestEvent]) -> u64 {
    let mut router = SessionRouter::new(Arc::clone(index))
        .with_tlds(FEED_TLDS)
        .with_batch_capacity(sham_core::router::DEFAULT_ROUTER_BATCH);
    let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut pending: Vec<DomainName> = Vec::new();
    let mut diffs = 0;
    for event in events {
        match event {
            IngestEvent::Registered(d) => {
                let slot = counts.entry(d.tld().to_string()).or_default();
                slot.0 += 1;
                if d.is_idn() {
                    slot.1 += 1;
                    pending.push(d.clone());
                }
            }
            IngestEvent::ReferenceChurn { added, removed } => {
                router.push_domains(&pending);
                pending.clear();
                router.apply_reference_diff(added, removed);
                diffs += 1;
            }
        }
    }
    router.push_domains(&pending);
    let report = router.into_report();
    digest_lanes(
        report.per_tld.iter().map(|l| {
            let (total, idns) = counts.get(&l.tld).copied().unwrap_or_default();
            (l.tld.as_str(), total, idns, l.report.detections.as_slice())
        }),
        diffs,
    )
}

/// Detected ACE names of a direct router replay over the zones' IDN
/// owners (the feed world's scan oracle).
fn replay_idn_owners(index: &Arc<DetectionIndex>, events: &[IngestEvent]) -> Vec<String> {
    let mut router = SessionRouter::new(Arc::clone(index));
    let idns: Vec<DomainName> = events
        .iter()
        .filter_map(|e| match e {
            IngestEvent::Registered(d) if d.is_idn() => Some(d.clone()),
            _ => None,
        })
        .collect();
    router.push_domains(&idns);
    let report = router.into_report();
    let mut names: Vec<String> = report.detections().map(|d| d.idn_ascii.clone()).collect();
    names.sort();
    names.dedup();
    names
}

/// Writes inputs and expectations into `dir`:
/// * `zones/<tld>.zone` — written during generation;
/// * `events.txt` — `R <name>` or `C <added,…>|<removed,…>` per line;
/// * `expect.txt` — per-zone counts, scan detections, feed digest;
/// * `scan_expect.txt` — the expected detected ACE names, sorted.
pub fn write_expectations(
    fixture: &mut Fixture,
    index: &Arc<DetectionIndex>,
    dir: &Path,
) -> io::Result<()> {
    if fixture.scan_expect.is_empty() {
        fixture.scan_expect = replay_idn_owners(index, &fixture.events);
    }
    let mut events = BufWriter::new(std::fs::File::create(dir.join("events.txt"))?);
    let mut registrations = 0u64;
    let mut churns = 0u64;
    for event in &fixture.events {
        match event {
            IngestEvent::Registered(d) => {
                registrations += 1;
                writeln!(events, "R {}", d.as_ascii())?;
            }
            IngestEvent::ReferenceChurn { added, removed } => {
                churns += 1;
                writeln!(events, "C {}|{}", added.join(","), removed.join(","))?;
            }
        }
    }
    events.flush()?;

    let mut expect = String::new();
    for z in &fixture.zones {
        let _ = writeln!(
            expect,
            "zone {} {} {} {} {} {} {}",
            z.tld, z.bytes, z.lines, z.records, z.malformed, z.owners, z.idns
        );
    }
    let _ = writeln!(
        expect,
        "feed {registrations} {churns} {}",
        expected_feed_digest(index, &fixture.events)
    );
    std::fs::write(dir.join("expect.txt"), expect)?;
    std::fs::write(
        dir.join("scan_expect.txt"),
        fixture.scan_expect.join("\n") + "\n",
    )?;
    Ok(())
}

/// Expectations read back by `measure` and `trace`.
pub struct Expect {
    pub zones: Vec<ZoneSpec>,
    pub registrations: u64,
    pub churns: u64,
    pub feed_digest: u64,
    pub scan_detections: Vec<String>,
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("generated name does not parse: {e}"),
    )
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed fixture: {what}"),
    )
}

pub fn read_expect(dir: &Path) -> io::Result<Expect> {
    let text = std::fs::read_to_string(dir.join("expect.txt"))?;
    let mut expect = Expect {
        zones: Vec::new(),
        registrations: 0,
        churns: 0,
        feed_digest: 0,
        scan_detections: Vec::new(),
    };
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let num = |i: usize| -> io::Result<u64> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(line))
        };
        match f[0] {
            "zone" if f.len() == 8 => expect.zones.push(ZoneSpec {
                tld: f[1].to_string(),
                bytes: num(2)?,
                lines: num(3)?,
                records: num(4)?,
                malformed: num(5)?,
                owners: num(6)?,
                idns: num(7)?,
            }),
            "feed" if f.len() == 4 => {
                expect.registrations = num(1)?;
                expect.churns = num(2)?;
                expect.feed_digest = num(3)?;
            }
            _ => return Err(bad(line)),
        }
    }
    expect.scan_detections = std::fs::read_to_string(dir.join("scan_expect.txt"))?
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    Ok(expect)
}

/// The feed events as `IngestEvent`s, in file order.
pub fn read_events(dir: &Path) -> io::Result<Vec<IngestEvent>> {
    let text = std::fs::read_to_string(dir.join("events.txt"))?;
    let split = |list: &str| -> Vec<String> {
        list.split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    text.lines()
        .map(|line| match line.split_once(' ') {
            Some(("R", name)) => DomainName::parse(name)
                .map(IngestEvent::Registered)
                .map_err(|e| bad(&format!("{name}: {e}"))),
            Some(("C", rest)) => {
                let (added, removed) = rest.split_once('|').ok_or_else(|| bad(line))?;
                Ok(IngestEvent::ReferenceChurn {
                    added: split(added),
                    removed: split(removed),
                })
            }
            _ => Err(bad(line)),
        })
        .collect()
}
