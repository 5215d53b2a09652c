//! Property-based tests (proptest) over the core data structures and the
//! detection invariants.

use proptest::prelude::*;
use shamfinder::glyph::scriptgen::{perturb, stroke_glyph, Region};
use shamfinder::glyph::Bitmap;
use shamfinder::prelude::*;
use shamfinder::punycode::{bootstring, PunycodeError};

// ---------------------------------------------------------------------------
// Punycode
// ---------------------------------------------------------------------------

proptest! {
    /// Every Unicode string round-trips through the Bootstring codec.
    #[test]
    fn punycode_round_trip(s in "\\PC{0,40}") {
        let encoded = bootstring::encode(&s).unwrap();
        prop_assert!(encoded.is_ascii());
        let decoded = bootstring::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, s);
    }

    /// ACE label conversion round-trips for registrable lowercase labels.
    #[test]
    fn ace_round_trip(s in "[a-z\u{00E0}-\u{00FF}\u{0430}-\u{044F}]{1,20}") {
        let ace = shamfinder::punycode::ace::to_ascii(&s).unwrap();
        prop_assert!(ace.len() <= 63);
        let back = shamfinder::punycode::ace::to_unicode(&ace).unwrap();
        prop_assert_eq!(back, s);
    }

    /// Decoding arbitrary ASCII never panics — it returns Ok or a typed
    /// error.
    #[test]
    fn punycode_decode_total(s in "[ -~]{0,30}") {
        match bootstring::decode(&s) {
            Ok(_) => {}
            Err(
                PunycodeError::InvalidDigit(_)
                | PunycodeError::Overflow
                | PunycodeError::InvalidCodePoint(_)
                | PunycodeError::NonBasic(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Domain parsing either fails or yields a lowercase ACE name that
    /// re-parses to itself (idempotence).
    #[test]
    fn domain_parse_idempotent(s in "[a-zA-Z0-9.\u{00E0}-\u{00FF}-]{1,40}") {
        if let Ok(d) = DomainName::parse(&s) {
            let again = DomainName::parse(d.as_ascii()).unwrap();
            prop_assert_eq!(d.as_ascii(), again.as_ascii());
            prop_assert_eq!(d.as_ascii(), d.as_ascii().to_lowercase());
        }
    }
}

// ---------------------------------------------------------------------------
// Bitmap metric axioms
// ---------------------------------------------------------------------------

fn arb_bitmap() -> impl Strategy<Value = Bitmap> {
    (any::<u64>(), 3usize..7).prop_map(|(seed, strokes)| {
        stroke_glyph(seed, Region::LETTER, strokes)
    })
}

proptest! {
    /// Δ is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn delta_is_a_metric(a in arb_bitmap(), b in arb_bitmap(), c in arb_bitmap()) {
        prop_assert_eq!(a.delta(&a), 0);
        prop_assert_eq!(a.delta(&b), b.delta(&a));
        prop_assert!(a.delta(&c) <= a.delta(&b) + b.delta(&c));
    }

    /// Perturbing by n moves Δ by exactly n.
    #[test]
    fn perturb_is_exact(a in arb_bitmap(), seed in any::<u64>(), n in 1u32..8) {
        let p = perturb(a, seed, n);
        prop_assert_eq!(a.delta(&p), n);
    }

    /// The banded-signature pigeonhole: Δ ≤ k ⇒ some band of k+1 matches.
    #[test]
    fn band_signatures_never_miss(a in arb_bitmap(), seed in any::<u64>(), n in 0u32..5) {
        let b = if n == 0 { a } else { perturb(a, seed, n) };
        let bands = 5;
        prop_assert!(a.delta(&b) <= 4);
        let sa = a.band_signatures(bands);
        let sb = b.band_signatures(bands);
        prop_assert!(sa.iter().zip(&sb).any(|(x, y)| x == y));
    }

    /// PSNR decreases monotonically with Δ (paper §3.3 relation).
    #[test]
    fn psnr_monotone(a in arb_bitmap(), seed in any::<u64>(), n in 1u32..6) {
        use shamfinder::glyph::metrics::psnr;
        let near = perturb(a, seed, n);
        let far = perturb(a, seed.wrapping_add(1), n + 4);
        prop_assert!(psnr(&a, &near) > psnr(&a, &far));
    }
}

// ---------------------------------------------------------------------------
// Zone round-trips
// ---------------------------------------------------------------------------

proptest! {
    /// Zones serialise and re-parse identically for arbitrary A records.
    #[test]
    fn zone_round_trip(
        names in proptest::collection::vec("[a-z]{3,12}", 1..20),
        octet in 1u8..250,
    ) {
        use shamfinder::dns::{parse, RecordData, ResourceRecord, Zone};
        let records: Vec<ResourceRecord> = names
            .iter()
            .map(|n| ResourceRecord {
                name: DomainName::parse(&format!("{n}.com")).unwrap(),
                ttl: 3600,
                data: RecordData::A(std::net::Ipv4Addr::new(192, 0, 2, octet)),
            })
            .collect();
        let zone = Zone { origin: "com".into(), default_ttl: 3600, records };
        let text = zone.to_text();
        let parsed = parse(&text, "com").unwrap();
        prop_assert_eq!(parsed.records, zone.records);
    }
}

// ---------------------------------------------------------------------------
// Name resolution and zone lexing ≡ reference models
// ---------------------------------------------------------------------------
//
// `DomainName::parse`/`assign` and the zone lexer take fast paths for
// ASCII input. The models below are the straightforward algorithms
// those paths replace — every label through `ace::to_ascii` and a
// join; `split_whitespace` tokens and a `format!`-built name per
// owner and target — and the properties pin the fast paths to them:
// same `Ok`/`Err`, same error variant and message, same owner.

/// The reference name parser: each label through `ace::to_ascii`, then
/// the joined length check.
fn reference_name(input: &str) -> Result<String, PunycodeError> {
    let trimmed = input.strip_suffix('.').unwrap_or(input);
    if trimmed.is_empty() {
        return Err(PunycodeError::EmptyLabel);
    }
    let labels = trimmed
        .split('.')
        .map(shamfinder::punycode::ace::to_ascii)
        .collect::<Result<Vec<_>, _>>()?;
    let ascii = labels.join(".");
    if ascii.len() > 253 {
        return Err(PunycodeError::NameTooLong(ascii.len()));
    }
    Ok(ascii)
}

/// A splitmix64 stream: turns one generated seed into any number of
/// picks from the token pools below.
struct Picks(u64);

impl Picks {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.below(pool.len())]
    }
}

/// A presentation name of exactly `len` bytes whose labels stay within
/// 63 bytes, upper-case where `upper`.
fn name_of_len(len: usize, upper: bool) -> String {
    let mut out = String::new();
    while len - out.len() > 64 {
        out.push_str(&"a".repeat(63));
        out.push('.');
    }
    out.push_str(&"b".repeat(len - out.len()));
    if upper {
        out.make_ascii_uppercase();
    }
    out
}

/// Origins the lexer resolves relative names against.
const ORIGINS: [&str; 5] = ["com", "", "Example.NET", "xn--p1ai", "net."];

/// A name token: `@`, labels of every edge length and case (`XN--`,
/// 63/64 bytes, empty, non-ASCII, Unicode that folds to ASCII) with
/// zero, one or two trailing dots, or a name sized to land on 252–254
/// bytes after joining one of [`ORIGINS`].
fn name_token(p: &mut Picks) -> String {
    const ASCII_LABELS: [&str; 10] =
        ["alpha", "Beta", "xn--ggle-55da", "XN--GGLE-55DA", "ns1", "", "-", "_srv", "xn--", "MiXeD"];
    const UNICODE_LABELS: [&str; 5] = [
        "bücher",
        "ПРИМЕР",
        "\u{212A}elvin",
        "\u{0130}stanbul",
        "ÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿÿ",
    ];
    match p.below(10) {
        0 => "@".to_string(),
        1 => {
            // Joined to "com" (3 bytes), "" or "Example.NET" (11): one
            // byte either side of the 253-byte limit.
            let len = [249, 250, 251, 252, 253, 254, 241, 242][p.below(8)];
            let mut name = name_of_len(len, p.below(2) == 0);
            if p.below(3) == 0 {
                name.push('.');
            }
            name
        }
        2 => ["a".repeat(63), "b".repeat(64), "C".repeat(64)][p.below(3)].clone(),
        _ => {
            let labels: Vec<&str> = (0..1 + p.below(4))
                .map(|_| match p.below(6) {
                    0 => p.pick(&UNICODE_LABELS),
                    _ => p.pick(&ASCII_LABELS),
                })
                .collect();
            let mut name = labels.join(".");
            name.push_str(p.pick(&["", "", ".", ".."]));
            name
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse` and `assign` agree with the reference parser on every
    /// token shape, including the exact error variant and number; a
    /// rejected `assign` leaves the name as it was.
    #[test]
    fn name_entry_points_match_reference(seed in any::<u64>(), raw in "[a-zA-Z0-9.\u{00E0}-\u{00FF}-]{0,70}") {
        let mut p = Picks(seed);
        let mut slot = DomainName::parse("previous.example").unwrap();
        for input in [name_token(&mut p), raw, format!("{}.{}", name_token(&mut p), p.pick(&ORIGINS))] {
            let want = reference_name(&input);
            prop_assert_eq!(
                DomainName::parse(&input).map(|d| d.as_ascii().to_string()),
                want.clone(),
                "parse({:?})", input
            );
            let before = slot.clone();
            match (slot.assign(&input), &want) {
                (Ok(()), Ok(ascii)) => prop_assert_eq!(slot.as_ascii(), ascii.as_str()),
                (Err(e), Err(w)) => {
                    prop_assert_eq!(&e, w);
                    prop_assert_eq!(&slot, &before, "a rejected assign changed the name");
                }
                (got, _) => prop_assert!(false, "assign({input:?}) = {got:?}, reference {want:?}"),
            }
        }
    }
}

/// The reference line machine: `split_whitespace` tokens, a
/// `format!`-joined name per owner and target through
/// [`reference_name`]. Records come back as `(owner, owner_changed,
/// ttl, "TYPE rdata")`.
struct ReferenceLexer {
    origin: String,
    default_ttl: u32,
    owner: Option<String>,
    owner_token: String,
    line_no: usize,
}

type ReferenceLine = Result<Option<(String, bool, u32, String)>, shamfinder::dns::ZoneError>;

impl ReferenceLexer {
    fn new(origin: &str) -> Self {
        ReferenceLexer {
            origin: origin.to_string(),
            default_ttl: 86_400,
            owner: None,
            owner_token: String::new(),
            line_no: 0,
        }
    }

    fn resolve(&self, token: &str) -> Result<String, shamfinder::dns::ZoneError> {
        let full = if token == "@" {
            self.origin.clone()
        } else if let Some(absolute) = token.strip_suffix('.') {
            absolute.to_string()
        } else if self.origin.is_empty() {
            token.to_string()
        } else {
            format!("{token}.{}", self.origin)
        };
        reference_name(&full).map_err(|e| self.err(format!("bad name {token:?}: {e}")))
    }

    fn err(&self, message: impl Into<String>) -> shamfinder::dns::ZoneError {
        shamfinder::dns::ZoneError { line: self.line_no, message: message.into() }
    }

    fn line(&mut self, raw: &str) -> ReferenceLine {
        self.line_no += 1;
        let mut in_quotes = false;
        let mut line = raw;
        for (idx, c) in raw.char_indices() {
            match c {
                '"' => in_quotes = !in_quotes,
                ';' if !in_quotes => {
                    line = &raw[..idx];
                    break;
                }
                _ => {}
            }
        }
        if line.trim().is_empty() {
            return Ok(None);
        }
        // A directive is a line whose first word is `$ORIGIN` or `$TTL`;
        // a first word that only starts with one is malformed.
        let word = line.split(char::is_whitespace).next().unwrap_or("");
        let rest = &line[word.len()..];
        if word == "$ORIGIN" {
            let names: Vec<&str> = rest.split_whitespace().collect();
            let name = names.first().map_or("", |n| n.trim_end_matches('.'));
            if name.is_empty() {
                return Err(self.err("$ORIGIN requires a name"));
            }
            if names.len() > 1 {
                return Err(self.err("$ORIGIN takes exactly one name"));
            }
            if name != self.origin {
                self.origin = name.to_string();
                self.owner_token.clear();
            }
            return Ok(None);
        }
        if word == "$TTL" {
            self.default_ttl =
                rest.trim().parse().map_err(|e| self.err(format!("bad $TTL: {e}")))?;
            return Ok(None);
        }
        if word.starts_with("$ORIGIN") || word.starts_with("$TTL") {
            return Err(self.err(format!("unknown directive {word:?}")));
        }
        let mut tokens = line.split_whitespace().peekable();
        let changed = if line.starts_with(' ') || line.starts_with('\t') {
            if self.owner.is_none() {
                return Err(self.err("continuation line with no previous owner"));
            }
            false
        } else {
            let tok = tokens.next().ok_or_else(|| self.err("empty record line"))?;
            if self.owner.is_some() && tok == self.owner_token {
                false
            } else {
                self.owner = Some(self.resolve(tok)?);
                self.owner_token = tok.to_string();
                true
            }
        };
        let mut ttl = self.default_ttl;
        if let Some(v) = tokens.peek().and_then(|t| t.parse::<u32>().ok()) {
            ttl = v;
            tokens.next();
        }
        if tokens.peek().is_some_and(|t| t.eq_ignore_ascii_case("IN")) {
            tokens.next();
        }
        let rtype = tokens.next().ok_or_else(|| self.err("missing record type"))?;
        let data = match rtype.to_ascii_uppercase().as_str() {
            "A" => {
                let ip = tokens.next().ok_or_else(|| self.err("A record missing address"))?;
                let addr: std::net::Ipv4Addr =
                    ip.parse().map_err(|e| self.err(format!("bad IPv4: {e}")))?;
                format!("A {addr}")
            }
            "AAAA" => {
                let ip = tokens.next().ok_or_else(|| self.err("AAAA record missing address"))?;
                let addr: std::net::Ipv6Addr =
                    ip.parse().map_err(|e| self.err(format!("bad IPv6: {e}")))?;
                format!("AAAA {addr}")
            }
            "NS" => {
                let t = tokens.next().ok_or_else(|| self.err("NS record missing target"))?;
                format!("NS {}.", self.resolve(t)?)
            }
            "CNAME" => {
                let t = tokens.next().ok_or_else(|| self.err("CNAME missing target"))?;
                format!("CNAME {}.", self.resolve(t)?)
            }
            "MX" => {
                let pref: u16 = tokens
                    .next()
                    .ok_or_else(|| self.err("MX missing preference"))?
                    .parse()
                    .map_err(|e| self.err(format!("bad MX preference: {e}")))?;
                let t = tokens.next().ok_or_else(|| self.err("MX missing exchange"))?;
                format!("MX {pref} {}.", self.resolve(t)?)
            }
            "TXT" => {
                let rest: Vec<&str> = tokens.collect();
                format!("TXT \"{}\"", rest.join(" ").trim_matches('"'))
            }
            _ => return Err(self.err(format!("unsupported record type {rtype:?}"))),
        };
        let owner = self.owner.clone().expect("resolved above");
        Ok(Some((owner, changed, ttl, data)))
    }
}

/// A generated zone line covering the lexer's edge cases: directives
/// (well-formed, with a name too many, or a keyword run into more
/// letters such as `$ORIGINAL`), blanks, comments (and quoted `;`), continuation lines led by space
/// or tab, owners led by VT/FF, fields separated by ASCII and Unicode
/// whitespace, optional `+5`-style TTLs and classes, and rdata both
/// valid and not.
fn zone_line(p: &mut Picks) -> String {
    const ASCII_SEPS: [&str; 7] = [" ", "\t", " \t ", "\u{0b}", "\u{0c}", "\r", "\t"];
    const UNICODE_SEPS: [&str; 4] = ["\u{a0}", "\u{2003}", "\u{3000}", "\u{85}"];
    match p.below(16) {
        0 => format!(
            "{}{}",
            p.pick(&["$ORIGIN ", "$ORIGIN\t", "$ORIGIN\u{a0}", "$ORIGINAL ", "$ORIGIN"]),
            p.pick(&["com.", "Example.NET.", "", "org..", "xn--p1ai", "foo bar.", "example."])
        ),
        1 => format!(
            "{}{}",
            p.pick(&["$TTL ", "$TTL\t", "$TTLX ", "$TTL"]),
            p.pick(&["3600", "+5", "x", "", "60 60"])
        ),
        2 => p.pick(&["", "  \t", "\u{a0}", "; just a comment"]).to_string(),
        _ => {
            let mut fields: Vec<String> = Vec::new();
            let lead = match p.below(8) {
                0 => p.pick(&[" ", "\t"]).to_string(),
                1 => format!("{}{}", p.pick(&["\u{0b}", "\u{0c}"]), name_token(p)),
                _ => name_token(p),
            };
            if p.below(3) == 0 {
                fields.push(p.pick(&["3600", "+5", "0", "4294967296", "-1"]).to_string());
            }
            if p.below(2) == 0 {
                fields.push(p.pick(&["IN", "in", "IN", "CH"]).to_string());
            }
            let rtype = p.pick(&["A", "AAAA", "NS", "CNAME", "MX", "TXT", "SOA", "ns", "a", "Mx"]);
            fields.push(rtype.to_string());
            match rtype.to_ascii_uppercase().as_str() {
                "A" => fields.push(p.pick(&["192.0.2.1", "300.1.1.1", "::1"]).to_string()),
                "AAAA" => fields.push(p.pick(&["2001:db8::1", "192.0.2.1"]).to_string()),
                "MX" => {
                    fields.push(p.pick(&["10", "ten", "65536"]).to_string());
                    fields.push(name_token(p));
                }
                "TXT" => fields.push(p.pick(&["\"a; b\"", "\"x\" y", "plain"]).to_string()),
                _ => fields.push(name_token(p)),
            }
            if p.below(6) == 0 {
                fields.pop();
            }
            let unicode_seps = p.below(5) == 0;
            let mut line = lead;
            for field in fields {
                let sep = if unicode_seps && p.below(2) == 0 { &UNICODE_SEPS[..] } else { &ASCII_SEPS[..] };
                line.push_str(p.pick(sep));
                line.push_str(&field);
            }
            if p.below(5) == 0 {
                line.push_str(p.pick(&[" ; trailing", ";x\"y", "\t;"]));
            }
            line
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `push_line` and `scan_line` both classify every generated line
    /// exactly like the reference line machine: same skip/record/error
    /// outcome, same error line and message, same owner (and
    /// owner-changed flag), and for `push_line` the same TTL and rdata.
    #[test]
    fn zone_lexer_matches_reference(seed in any::<u64>(), lines in 1usize..40) {
        use shamfinder::dns::zone::{ZoneScan, ZoneStreamParser};
        let mut p = Picks(seed);
        let origin = p.pick(&ORIGINS);
        let mut reference = ReferenceLexer::new(origin);
        let mut pusher = ZoneStreamParser::new(origin);
        let mut scanner = ZoneStreamParser::new(origin);
        for _ in 0..lines {
            let raw = zone_line(&mut p);
            let want = reference.line(&raw);
            match (&want, pusher.push_line(&raw)) {
                (Ok(None), Ok(None)) => {}
                (Ok(Some((owner, _, ttl, data))), Ok(Some(rr))) => {
                    prop_assert_eq!(rr.name.as_ascii(), owner.as_str(), "push owner of {:?}", raw);
                    prop_assert_eq!(rr.ttl, *ttl, "push TTL of {:?}", raw);
                    let got = format!("{} {}", rr.data.record_type(), rr.data.rdata_string());
                    prop_assert_eq!(&got, data, "push rdata of {:?}", raw);
                }
                (Err(w), Err(e)) => prop_assert_eq!(&e, w, "push error on {:?}", raw),
                (w, got) => prop_assert!(false, "push_line({raw:?}) = {got:?}, reference {w:?}"),
            }
            match (&want, scanner.scan_line(&raw)) {
                (Ok(None), Ok(ZoneScan::Skip)) => {}
                (Ok(Some((owner, changed, _, _))), Ok(ZoneScan::Record { owner: got, new_owner })) => {
                    prop_assert_eq!(got.as_ascii(), owner.as_str(), "scan owner of {:?}", raw);
                    prop_assert_eq!(new_owner, *changed, "new_owner flag of {:?}", raw);
                }
                (Err(w), Err(e)) => prop_assert_eq!(&e, w, "scan error on {:?}", raw),
                (w, got) => prop_assert!(false, "scan_line({raw:?}) = {got:?}, reference {w:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Detection invariants
// ---------------------------------------------------------------------------

fn small_framework(references: Vec<String>) -> Framework {
    let font = SynthUnifont::v12();
    let simchar = build(
        &font,
        &BuildConfig {
            repertoire: Repertoire::Blocks(vec![
                "Basic Latin",
                "Latin-1 Supplement",
                "Cyrillic",
                "Greek and Coptic",
            ]),
            ..BuildConfig::default()
        },
    )
    .db;
    Framework::new(simchar, UcDatabase::embedded(), references, "com")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A homograph planted by substituting Cyrillic lookalikes is always
    /// detected against its reference, and the detection records the
    /// correct positions.
    #[test]
    fn planted_homograph_always_detected(
        stem in "[acepoxys]{4,12}",
        flip_mask in 1u16..256,
    ) {
        let subs: std::collections::HashMap<char, char> = [
            ('a', 'а'), ('c', 'с'), ('e', 'е'), ('p', 'р'),
            ('o', 'о'), ('x', 'х'), ('y', 'у'), ('s', 'ѕ'),
        ]
        .into_iter()
        .collect();

        let chars: Vec<char> = stem.chars().collect();
        let mut spoof = chars.clone();
        let mut flipped = Vec::new();
        for (i, c) in chars.iter().enumerate() {
            if flip_mask & (1 << (i % 16)) != 0 {
                spoof[i] = subs[c];
                flipped.push(i);
            }
        }
        prop_assume!(!flipped.is_empty());
        let spoof: String = spoof.into_iter().collect();

        let fw = small_framework(vec![stem.clone()]);
        let ace = shamfinder::punycode::ace::to_ascii(&spoof).unwrap();
        let corpus = vec![DomainName::parse(&format!("{ace}.com")).unwrap()];
        let report = fw.run(&corpus);

        prop_assert_eq!(report.detections.len(), 1, "spoof {} missed", spoof);
        let det = &report.detections[0];
        prop_assert_eq!(&*det.reference, stem.as_str());
        let positions: Vec<usize> =
            det.substitutions.iter().map(|s| s.position).collect();
        prop_assert_eq!(positions, flipped);
    }

    /// Detections preserve character length and revert to the reference.
    #[test]
    fn detected_implies_length_and_revert(stem in "[aceo]{3,8}") {
        let spoof: String = stem
            .chars()
            .map(|c| match c {
                'a' => 'а',
                'c' => 'с',
                'e' => 'е',
                _ => 'о',
            })
            .collect();
        let fw = small_framework(vec![stem.clone()]);
        let ace = shamfinder::punycode::ace::to_ascii(&spoof).unwrap();
        let corpus = vec![DomainName::parse(&format!("{ace}.com")).unwrap()];
        let report = fw.run(&corpus);
        prop_assert_eq!(report.detections.len(), 1);

        let det = &report.detections[0];
        prop_assert_eq!(det.idn_unicode.chars().count(), stem.chars().count());

        let db = fw.detector().db();
        let reverted = shamfinder::core::revert_stem(db, &det.idn_unicode);
        prop_assert_eq!(reverted.stem(), stem.as_str());
    }

    /// Random ASCII names are never reported as homographs of themselves.
    #[test]
    fn no_self_detection(stem in "[a-z]{3,12}") {
        let fw = small_framework(vec![stem.clone()]);
        let corpus = vec![DomainName::parse(&format!("{stem}.com")).unwrap()];
        let report = fw.run(&corpus);
        prop_assert!(report.detections.is_empty());
    }

    /// The canonical-closure index is exact on lookalike corpora: every
    /// detection the naive all-pairs sweep finds, `CanonicalClosure`
    /// finds too, and vice versa — whatever mix of clean stems, partial
    /// spoofs and full spoofs is thrown at it. (The adversarial
    /// non-transitive case lives in
    /// `crates/core/tests/closure_equivalence.rs`.)
    #[test]
    fn canonical_closure_agrees_with_naive(
        stems in proptest::collection::vec("[acepoxys]{3,10}", 2..6),
        masks in proptest::collection::vec(any::<u16>(), 2..6),
    ) {
        let subs: std::collections::HashMap<char, char> = [
            ('a', 'а'), ('c', 'с'), ('e', 'е'), ('p', 'р'),
            ('o', 'о'), ('x', 'х'), ('y', 'у'), ('s', 'ѕ'),
        ]
        .into_iter()
        .collect();

        // References: the clean stems. Corpus: one spoof per stem with
        // substitutions at mask positions (possibly none → identical).
        let mut idns = Vec::new();
        for (stem, mask) in stems.iter().zip(&masks) {
            let spoof: String = stem
                .chars()
                .enumerate()
                .map(|(i, c)| if mask & (1 << (i % 16)) != 0 { subs[&c] } else { c })
                .collect();
            let ace = shamfinder::punycode::ace::to_ascii(&spoof).unwrap();
            idns.push((spoof, format!("{ace}.com")));
        }

        let fw = small_framework(stems.clone());
        let d = fw.detector();
        let key = |v: Vec<Detection>| {
            let mut k: Vec<(String, String)> = v
                .into_iter()
                .map(|h| (h.idn_ascii, h.reference.to_string()))
                .collect();
            k.sort();
            k
        };
        let naive = key(d.detect(&idns, DbSelection::Union, Indexing::Naive));
        let canon = key(d.detect(&idns, DbSelection::Union, Indexing::CanonicalClosure));
        prop_assert_eq!(naive, canon);
    }
}

// ---------------------------------------------------------------------------
// Confusables skeletons
// ---------------------------------------------------------------------------

proptest! {
    /// Skeletons are idempotent: skeleton(skeleton(s)) == skeleton(s).
    #[test]
    fn skeleton_idempotent(s in "\\PC{0,24}") {
        let uc = UcDatabase::embedded();
        let once = uc.skeleton(&s);
        let twice = uc.skeleton(&once);
        prop_assert_eq!(once, twice);
    }
}
