//! Domain-name type shared by the whole workspace.
//!
//! A [`DomainName`] is a validated, lowercased, dot-separated sequence of
//! labels in wire (ACE) form. The framework's Step 2 — extracting IDNs
//! from a zone by looking for the `xn--` prefix (paper §3.1) — and the
//! TLD-stripping used by Algorithm 1 both live here.

use crate::{ace, PunycodeError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Maximum total length of a domain name in octets (RFC 1035 presentation
/// form without the trailing dot).
pub const MAX_NAME_OCTETS: usize = 253;

/// A validated domain name held in ACE (wire) form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DomainName {
    ascii: String,
}

impl DomainName {
    /// Parses a domain name given in either Unicode or ACE form.
    ///
    /// Labels are individually converted with [`ace::to_ascii`]; the result
    /// is validated against DNS length limits. A single trailing dot
    /// (root) is accepted and dropped.
    pub fn parse(input: &str) -> Result<Self, PunycodeError> {
        let mut ascii = String::with_capacity(input.len());
        push_ace(&mut ascii, input)?;
        Ok(DomainName { ascii })
    }

    /// Re-parses this name in place from `input`, reusing its buffer:
    /// the same `Ok`/`Err` as [`DomainName::parse`], but once the buffer
    /// has grown to fit the longest name seen, an all-ASCII input
    /// allocates nothing. On `Err` the name is left unchanged.
    pub fn assign(&mut self, input: &str) -> Result<(), PunycodeError> {
        // The new name is built after the current one and shifted down
        // on success, so a rejected input never clobbers a valid name.
        let old = self.ascii.len();
        match push_ace(&mut self.ascii, input) {
            Ok(()) => {
                self.ascii.drain(..old);
                Ok(())
            }
            Err(e) => {
                self.ascii.truncate(old);
                Err(e)
            }
        }
    }

    /// The full name in ACE form (`xn--…` labels, lowercase).
    pub fn as_ascii(&self) -> &str {
        &self.ascii
    }

    /// Iterates the labels in ACE form, left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.ascii.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The rightmost label (the TLD), e.g. `com`.
    pub fn tld(&self) -> &str {
        self.labels().last().expect("validated names have >= 1 label")
    }

    /// Everything left of the TLD, or `None` for a bare TLD.
    ///
    /// Algorithm 1 operates on names with "the TLD part removed"; this is
    /// that projection, still in ACE form.
    pub fn without_tld(&self) -> Option<&str> {
        self.ascii.rfind('.').map(|pos| &self.ascii[..pos])
    }

    /// The registrable second-level label (the label left of the TLD),
    /// e.g. `google` for `www.google.com`.
    pub fn sld(&self) -> Option<&str> {
        let labels: Vec<&str> = self.labels().collect();
        if labels.len() >= 2 {
            Some(labels[labels.len() - 2])
        } else {
            None
        }
    }

    /// True when any label carries the ACE prefix — the framework's IDN
    /// extraction predicate (paper Step 2).
    pub fn is_idn(&self) -> bool {
        self.labels().any(|l| l.starts_with(ace::ACE_PREFIX))
    }

    /// Converts every label to its Unicode form.
    pub fn to_unicode(&self) -> Result<String, PunycodeError> {
        let mut out = Vec::new();
        for label in self.labels() {
            out.push(ace::to_unicode(label)?);
        }
        Ok(out.join("."))
    }

    /// Unicode form of the name with the TLD removed — the exact string
    /// Algorithm 1 compares. Falls back to the ACE form for labels that
    /// fail to decode (defensive: zone files contain garbage `xn--` labels).
    pub fn unicode_without_tld(&self) -> Option<String> {
        let stem = self.without_tld()?;
        let mut out = Vec::new();
        for label in stem.split('.') {
            out.push(ace::to_unicode(label).unwrap_or_else(|_| label.to_string()));
        }
        Some(out.join("."))
    }
}

/// Appends the ACE form of `input` to `out`: the single validator
/// behind [`DomainName::parse`] and [`DomainName::assign`].
///
/// Labels are checked left to right and the whole name last, so the
/// first bad label decides the error. An all-ASCII name (every zone
/// file owner) takes one validating pass over its bytes and one
/// lowercasing copy — what [`ace::to_ascii`] does to each of its
/// labels, without the per-label strings. Any other name converts
/// label by label through `to_ascii`. On `Err`, `out` may hold a
/// partial name.
fn push_ace(out: &mut String, input: &str) -> Result<(), PunycodeError> {
    let trimmed = input.strip_suffix('.').unwrap_or(input);
    if trimmed.is_empty() {
        return Err(PunycodeError::EmptyLabel);
    }
    let start = out.len();
    if trimmed.is_ascii() {
        let check = |label_len: usize| match label_len {
            0 => Err(PunycodeError::EmptyLabel),
            n if n > ace::MAX_LABEL_OCTETS => Err(PunycodeError::LabelTooLong(n)),
            _ => Ok(()),
        };
        let mut label_len = 0;
        for &b in trimmed.as_bytes() {
            if b == b'.' {
                check(label_len)?;
                label_len = 0;
            } else {
                label_len += 1;
            }
        }
        check(label_len)?;
        out.push_str(trimmed);
        out[start..].make_ascii_lowercase();
    } else {
        for (i, label) in trimmed.split('.').enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(&ace::to_ascii(label)?);
        }
    }
    let len = out.len() - start;
    if len > MAX_NAME_OCTETS {
        return Err(PunycodeError::NameTooLong(len));
    }
    Ok(())
}

impl FromStr for DomainName {
    type Err = PunycodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.ascii)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ascii_name() {
        let d = DomainName::parse("WWW.Google.COM").unwrap();
        assert_eq!(d.as_ascii(), "www.google.com");
        assert_eq!(d.tld(), "com");
        assert_eq!(d.sld(), Some("google"));
        assert_eq!(d.without_tld(), Some("www.google"));
        assert!(!d.is_idn());
    }

    #[test]
    fn parse_unicode_name_encodes_labels() {
        let d = DomainName::parse("阿里巴巴.com").unwrap();
        assert_eq!(d.as_ascii(), "xn--tsta8290bfzd.com");
        assert!(d.is_idn());
        assert_eq!(d.to_unicode().unwrap(), "阿里巴巴.com");
    }

    #[test]
    fn parse_ace_name_detects_idn() {
        let d = DomainName::parse("xn--facbook-dya.com").unwrap();
        assert!(d.is_idn());
        assert_eq!(d.unicode_without_tld().unwrap(), "facébook");
    }

    #[test]
    fn trailing_root_dot_accepted() {
        let d = DomainName::parse("example.com.").unwrap();
        assert_eq!(d.as_ascii(), "example.com");
    }

    #[test]
    fn empty_and_dotted_rejected() {
        assert!(DomainName::parse("").is_err());
        assert!(DomainName::parse(".").is_err());
        assert!(DomainName::parse("a..b").is_err());
    }

    #[test]
    fn bare_tld_has_no_stem() {
        let d = DomainName::parse("com").unwrap();
        assert_eq!(d.without_tld(), None);
        assert_eq!(d.sld(), None);
    }

    #[test]
    fn name_length_limit() {
        let label = "a".repeat(60);
        let long = format!("{label}.{label}.{label}.{label}.{label}");
        assert!(matches!(
            DomainName::parse(&long),
            Err(PunycodeError::NameTooLong(_))
        ));
    }

    #[test]
    fn garbage_ace_label_survives_unicode_projection() {
        // "xn--zzzzz" may not decode; unicode_without_tld must not panic.
        let d = DomainName::parse("xn--a.com");
        if let Ok(d) = d {
            let _ = d.unicode_without_tld();
        }
    }
}
