//! scan-zone ≡ batch replay: the chunked, overlapped-I/O [`ZoneScanner`]
//! over a generated multi-TLD zone must be *detection-identical* to an
//! unchunked line-by-line replay through [`ZoneStreamParser::scan_line`]
//! plus the same dedup/blacklist pre-stage feeding a plain
//! [`SessionRouter`] — same router report, same per-TLD accounting —
//! at every chunk size and thread count. Truncating the input at an
//! arbitrary byte offset or corrupting a byte mid-stream must never
//! panic and must keep the `records_accounted` books closed (and the
//! two models still agree on the damaged input).

use proptest::prelude::*;
use shamfinder::core::{
    DetectionIndex, RouterReport, ScanConfig, SessionRouter, TldScanStats, ZoneScanner,
};
use shamfinder::dns::zone::{ZoneScan, ZoneStreamParser};
use shamfinder::web::Blacklist;
use shamfinder::workload::{reference_list, write_synthetic_zone, ZoneGenConfig};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};

/// Reference stems shared by the generator and the detection index, so
/// the planted Cyrillic lookalikes are actually detectable.
const REFERENCE_SIZE: usize = 60;

/// One shared index for every case — the SimChar build is the expensive
/// part and the index is immutable.
fn index() -> &'static Arc<DetectionIndex> {
    static INDEX: OnceLock<Arc<DetectionIndex>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let font = shamfinder::glyph::SynthUnifont::v12();
        let result = shamfinder::simchar::build(
            &font,
            &shamfinder::simchar::BuildConfig {
                repertoire: shamfinder::simchar::Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Cyrillic",
                ]),
                ..shamfinder::simchar::BuildConfig::default()
            },
        );
        DetectionIndex::shared(
            shamfinder::simchar::HomoglyphDb::new(
                result.db,
                shamfinder::confusables::UcDatabase::embedded(),
            ),
            reference_list(REFERENCE_SIZE),
        )
    })
}

fn gen_zone(tld: &str, seed: u64, target_bytes: u64, homographs: u32, malformed: u32) -> Vec<u8> {
    let cfg = ZoneGenConfig {
        tld: tld.to_string(),
        target_bytes,
        target_records: 0,
        homograph_permille: homographs,
        reference_size: REFERENCE_SIZE,
        malformed_permille: malformed,
        seed,
    };
    let mut buf = Vec::new();
    write_synthetic_zone(&mut buf, &cfg).expect("Vec<u8> writes cannot fail");
    buf
}

/// The lines the scanner's chunk splitter yields for `data`: split on
/// `\n`, no phantom empty line after a trailing newline, a final
/// unterminated line still counts.
fn byte_lines(data: &[u8]) -> Vec<&[u8]> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut lines: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
    if data.last() == Some(&b'\n') {
        lines.pop();
    }
    lines
}

/// A router over the shared index: auto-opening, or restricted to the
/// fixed lane set `lanes`.
fn router(lanes: Option<&[&str]>) -> SessionRouter {
    let router = SessionRouter::new(Arc::clone(index()));
    match lanes {
        Some(tlds) => router.with_tlds(tlds.iter().copied()),
        None => router,
    }
}

/// The reference model: one unchunked, single-threaded-I/O pass per
/// file through `scan_line` with the identical dedup-window, blacklist
/// and accounting rules, feeding the router domain by domain. Every
/// routed owner — IDN or not — goes through `push_domains`, so the
/// model is an oracle for the scanner's IDN prefilter rather than a
/// copy of it. The dedup window is keyed by the owner *string* (not
/// its hash), pinning the intended semantics of the scanner's hash
/// window.
fn replay(
    inputs: &[(&str, &[u8])],
    dedup_window: usize,
    blacklists: &[Blacklist],
    lanes: Option<&[&str]>,
) -> (RouterReport, BTreeMap<String, TldScanStats>) {
    let mut router = router(lanes).with_batch_capacity(97);
    let mut per_tld: BTreeMap<String, TldScanStats> = BTreeMap::new();
    let mut window: VecDeque<String> = VecDeque::new();
    let mut window_set: HashSet<String> = HashSet::new();

    for (tld, data) in inputs {
        let stats = per_tld.entry(tld.to_string()).or_default();
        stats.bytes += data.len() as u64;
        let mut parser = ZoneStreamParser::new(tld);
        for raw in byte_lines(data) {
            stats.lines += 1;
            let raw = match raw.split_last() {
                Some((b'\r', head)) => head,
                _ => raw,
            };
            let text = match std::str::from_utf8(raw) {
                Ok(t) => t,
                Err(_) => {
                    stats.quarantined += 1;
                    let _ = parser.scan_line("");
                    continue;
                }
            };
            match parser.scan_line(text) {
                Ok(ZoneScan::Skip) => {}
                Err(_) => stats.quarantined += 1,
                Ok(ZoneScan::Record { owner, new_owner }) => {
                    stats.records += 1;
                    if !new_owner {
                        stats.dedup_consecutive += 1;
                        continue;
                    }
                    if dedup_window > 0 {
                        let key = owner.as_ascii().to_string();
                        if window_set.contains(&key) {
                            stats.dedup_window += 1;
                            continue;
                        }
                        if window.len() >= dedup_window {
                            if let Some(old) = window.pop_front() {
                                window_set.remove(&old);
                            }
                        }
                        window_set.insert(key.clone());
                        window.push_back(key);
                    }
                    if blacklists.iter().any(|bl| bl.contains_suffix(owner.as_ascii())) {
                        stats.blacklisted += 1;
                        continue;
                    }
                    stats.routed += 1;
                    router.push_domains(std::iter::once(owner));
                }
            }
        }
    }
    (router.into_report(), per_tld)
}

/// Runs the real scanner over the same inputs.
fn scan(
    inputs: &[(&str, &[u8])],
    chunk_bytes: usize,
    dedup_window: usize,
    blacklists: Vec<Blacklist>,
    lanes: Option<&[&str]>,
) -> shamfinder::core::ScanReport {
    let config = ScanConfig {
        chunk_bytes,
        dedup_window,
        blacklists,
        ..ScanConfig::default()
    };
    let mut scanner = ZoneScanner::new(router(lanes).with_batch_capacity(256), config);
    for (tld, data) in inputs {
        scanner
            .scan_reader(tld, *data)
            .expect("in-memory readers cannot fail I/O");
    }
    scanner.finish()
}

/// Full-fidelity comparison: router reports equal, every per-TLD
/// counter equal (elapsed time excepted), books closed on both sides.
fn assert_equivalent(
    report: &shamfinder::core::ScanReport,
    expected_router: &RouterReport,
    expected_tld: &BTreeMap<String, TldScanStats>,
    context: &str,
) {
    report
        .verify_accounting()
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(&report.router, expected_router, "{context}: detections diverged");
    assert_eq!(
        report.per_tld.len(),
        expected_tld.len(),
        "{context}: TLD sets diverged"
    );
    for (tld, want) in expected_tld {
        let mut got = report.per_tld[tld];
        got.elapsed_secs = 0.0;
        assert!(
            want.is_accounted(),
            "{context}: replay books don't close for .{tld}"
        );
        assert_eq!(&got, want, "{context}: .{tld} accounting diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any generator shape (lookalike/malformed rates, seed), any chunk
    /// size, any dedup-window length, with and without a TLD-wide
    /// blacklist: the chunked scanner and the unchunked replay agree
    /// exactly on a two-TLD feed.
    #[test]
    fn scanner_matches_unchunked_replay(
        seed in any::<u64>(),
        homographs in 10u32..80,
        malformed in 0u32..30,
        chunk in 4096usize..20_000,
        window in 0usize..96,
        blacklist_net in 0u8..2,
    ) {
        let com = gen_zone("com", seed, 24 << 10, homographs, malformed);
        let net = gen_zone("net", seed ^ 0x9E37_79B9, 16 << 10, homographs, malformed);
        let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];

        let mut blacklists = Vec::new();
        if blacklist_net == 1 {
            let mut bl = Blacklist::new("tld-wide");
            bl.add("net");
            blacklists.push(bl);
        }

        let (want_router, want_tld) = replay(&inputs, window, &blacklists, None);
        let report = scan(&inputs, chunk, window, blacklists, None);
        assert_equivalent(&report, &want_router, &want_tld, "generated feed");

        if blacklist_net == 1 {
            let net_stats = &report.per_tld["net"];
            prop_assert_eq!(net_stats.routed, 0, "TLD-wide blacklist leaked");
            prop_assert!(net_stats.blacklisted > 0);
        }
    }
}

/// Rewrites the owner token of record lines, picked per owner by an
/// FNV hash of the token and `seed` (so an owner's whole run changes
/// together): upper-cased (`xn--` owners become `XN--`), made absolute
/// in another TLD (`foo` → `foo.net.`), or both (`FOO.ORG.`); about
/// half the owners keep their token.
fn reshape_owners(data: &[u8], seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 4);
    for (i, line) in data.split(|&b| b == b'\n').enumerate() {
        if i > 0 {
            out.push(b'\n');
        }
        let owner_len = line
            .iter()
            .position(|b| b.is_ascii_whitespace())
            .unwrap_or(line.len());
        if owner_len == 0 || matches!(line[0], b'$' | b';') {
            out.extend_from_slice(line);
            continue;
        }
        let (owner, rest) = line.split_at(owner_len);
        let hash = owner.iter().fold(0xcbf2_9ce4_8422_2325u64 ^ seed, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        match hash % 8 {
            0 | 1 => out.extend(owner.iter().map(u8::to_ascii_uppercase)),
            2 => {
                out.extend_from_slice(owner);
                out.extend_from_slice(b".net.");
            }
            3 => {
                out.extend(owner.iter().map(u8::to_ascii_uppercase));
                out.extend_from_slice(b".ORG.");
            }
            _ => out.extend_from_slice(owner),
        }
        out.extend_from_slice(rest);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The IDN prefilter routes by each owner's own TLD and counts
    /// `XN--` owners as IDNs: on feeds whose owners are upper-cased or
    /// absolute in another TLD, the scanner still equals the
    /// push-everything replay — auto-opening lanes for the foreign
    /// TLDs, or, under a fixed `.com` lane set, counting every foreign
    /// owner (ASCII ones included) as unrouted.
    #[test]
    fn prefilter_routes_foreign_and_uppercase_owners(
        seed in any::<u64>(),
        chunk in 4096usize..20_000,
        window in 0usize..96,
        fixed in 0u8..2,
    ) {
        let fixed_lanes = fixed == 1;
        let com = reshape_owners(&gen_zone("com", seed, 24 << 10, 60, 5), seed);
        let net = reshape_owners(&gen_zone("net", seed ^ 0x5EED, 12 << 10, 60, 5), !seed);
        let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];
        let lanes: Option<&[&str]> = if fixed_lanes { Some(&["com"]) } else { None };

        let (want_router, want_tld) = replay(&inputs, window, &[], lanes);
        let report = scan(&inputs, chunk, window, Vec::new(), lanes);
        assert_equivalent(&report, &want_router, &want_tld, "reshaped feed");

        // Every routed owner lands in a lane or in `unrouted`.
        let routed: u64 = report.per_tld.values().map(|s| s.routed).sum();
        prop_assert_eq!(routed, report.router.total_domains() as u64);
        let lane_tlds: Vec<&str> =
            report.router.per_tld.iter().map(|t| t.tld.as_str()).collect();
        if fixed_lanes {
            prop_assert_eq!(lane_tlds, vec!["com"]);
            prop_assert!(report.router.unrouted_domains > 0, "foreign owners must be unrouted");
        } else {
            prop_assert_eq!(lane_tlds, vec!["com", "net", "org"]);
            prop_assert_eq!(report.router.unrouted_domains, 0);
        }
        prop_assert!(report.router.idn_count() > 0, "upper-cased IDN owners must still count");
    }
}

/// A fixed damaged-input corpus base; generated once.
fn damage_base() -> &'static Vec<u8> {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| gen_zone("com", 0xDA11A6ED, 48 << 10, 40, 8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating at an arbitrary byte offset and corrupting a byte at
    /// an arbitrary position (high-bit flip → invalid UTF-8, zero byte,
    /// or an injected newline that reshapes line structure) never
    /// panics, keeps the books closed, and the two models still agree
    /// on the damaged bytes.
    #[test]
    fn truncation_and_corruption_keep_the_books(
        cut in 0usize..(48 << 10),
        flip_at in any::<usize>(),
        flip_mode in 0u8..4,
        chunk in 4096usize..9_000,
    ) {
        let base = damage_base();
        let cut = cut.min(base.len());
        let mut data = base[..cut].to_vec();
        if !data.is_empty() {
            let at = flip_at % data.len();
            match flip_mode {
                0 => data[at] ^= 0x80,      // often invalid UTF-8
                1 => data[at] = 0x00,
                2 => data[at] = b'\n',      // reshape line structure
                _ => {}                     // pure truncation
            }
        }
        let inputs: Vec<(&str, &[u8])> = vec![("com", &data)];
        let (want_router, want_tld) = replay(&inputs, 64, &[], None);
        let report = scan(&inputs, chunk, 64, Vec::new(), None);
        assert_equivalent(&report, &want_router, &want_tld, "damaged feed");
    }
}

/// The acceptance-criterion configuration, pinned exactly: a two-TLD
/// generated feed with planted lookalikes scans to the same report at
/// 1 and N worker threads, both equal to the unchunked replay, and the
/// lookalikes are actually detected.
#[test]
fn scan_is_thread_count_invariant_and_detects_plants() {
    let com = gen_zone("com", 11, 128 << 10, 50, 5);
    let net = gen_zone("net", 12, 64 << 10, 50, 5);
    let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];

    let (want_router, want_tld) = {
        let _one = rayon::ThreadOverride::new(1);
        replay(&inputs, 8_192, &[], None)
    };
    assert!(
        want_router.detection_count() > 0,
        "generated corpus must be detection-rich"
    );

    let hardware = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    for threads in [1usize, hardware] {
        let _forced = rayon::ThreadOverride::new(threads);
        let report = scan(&inputs, 1 << 16, 8_192, Vec::new(), None);
        assert_equivalent(
            &report,
            &want_router,
            &want_tld,
            &format!("{threads} thread(s)"),
        );
    }
}

/// An empty input file closes its books trivially and produces an
/// all-zero ledger rather than a missing or phantom entry.
#[test]
fn empty_file_accounts_to_zero()  {
    let inputs: Vec<(&str, &[u8])> = vec![("org", b"")];
    let (want_router, want_tld) = replay(&inputs, 16, &[], None);
    let report = scan(&inputs, 4096, 16, Vec::new(), None);
    assert_equivalent(&report, &want_router, &want_tld, "empty file");
    let mut org = report.per_tld["org"];
    org.elapsed_secs = 0.0;
    assert_eq!(org, TldScanStats::default());
    assert_eq!(report.files, 1);
}
