//! Dataset container: certificates + extracted person records, and its
//! line-oriented text format.

mod text;

pub use text::{ParseError, ParseErrorKind};

use crate::certificate::{Certificate, CertificateKind};
use crate::ids::{CertificateId, RecordId};
use crate::person::{Gender, PersonRecord};
use crate::relationship::{certificate_relationships, Relationship};
use crate::role::Role;

/// A set of certificates and the person records extracted from them — the
/// paper's record set **R**.
///
/// Records and certificates are stored in dense arenas; identifiers are arena
/// indices, so lookups are `O(1)` and iteration order is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. `"IOS"`, `"KIL"`).
    pub name: String,
    /// Certificate arena, indexed by [`CertificateId`].
    pub certificates: Vec<Certificate>,
    /// Record arena, indexed by [`RecordId`].
    pub records: Vec<PersonRecord>,
}

impl Dataset {
    /// Create an empty dataset.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), certificates: Vec::new(), records: Vec::new() }
    }

    /// Number of person records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Look up a record.
    ///
    /// # Panics
    /// Panics when the id is out of range (ids are only minted by this
    /// dataset, so an out-of-range id is a logic error).
    #[inline]
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "arena accessor: ids are minted by this dataset")]
    pub fn record(&self, id: RecordId) -> &PersonRecord {
        &self.records[id.index()]
    }

    /// Look up a certificate.
    #[inline]
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "arena accessor: ids are minted by this dataset")]
    pub fn certificate(&self, id: CertificateId) -> &Certificate {
        &self.certificates[id.index()]
    }

    /// Start a new certificate, returning its id.
    pub fn push_certificate(&mut self, kind: CertificateKind, year: i32) -> CertificateId {
        let id = CertificateId::from_index(self.certificates.len());
        self.certificates.push(Certificate::new(id, kind, year));
        id
    }

    /// Add a person record to an existing certificate, returning its id.
    #[expect(clippy::indexing_slicing, reason = "arena accessor: ids are minted by this dataset")]
    pub fn push_record(
        &mut self,
        certificate: CertificateId,
        role: Role,
        gender: Gender,
    ) -> RecordId {
        let year = self.certificate(certificate).year;
        let id = RecordId::from_index(self.records.len());
        self.records.push(PersonRecord::new(id, certificate, role, gender, year));
        self.certificates[certificate.index()].add_person(role, id);
        id
    }

    /// Mutable access to a record (builder-style population).
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "arena accessor: ids are minted by this dataset")]
    pub fn record_mut(&mut self, id: RecordId) -> &mut PersonRecord {
        &mut self.records[id.index()]
    }

    /// Iterate over records with a given role.
    pub fn records_with_role(&self, role: Role) -> impl Iterator<Item = &PersonRecord> {
        self.records.iter().filter(move |r| r.role == role)
    }

    /// All directed relationship edges asserted by all certificates.
    #[must_use]
    pub fn all_relationships(&self) -> Vec<(RecordId, RecordId, Relationship)> {
        let mut edges = Vec::new();
        for cert in &self.certificates {
            edges.extend(certificate_relationships(cert));
        }
        edges
    }

    /// The records appearing on the same certificate as `id`, with the
    /// relationship of each towards `id`.
    #[must_use]
    pub fn certificate_neighbours(&self, id: RecordId) -> Vec<(RecordId, Relationship)> {
        let rec = self.record(id);
        let cert = self.certificate(rec.certificate);
        let mut out = Vec::new();
        for &(role, other) in &cert.people {
            if other == id {
                continue;
            }
            if let Some(rel) = crate::relationship::role_relationship(role, rec.role) {
                out.push((other, rel));
            }
        }
        out
    }

    /// Render in the dataset text format.
    ///
    /// The format is UTF-8 text, one item per `\n`-terminated line, fields
    /// separated by tabs, in this fixed order:
    ///
    /// ```text
    /// snaps-dataset  1  <name>
    /// C  <id>  <kind>  <year>  <parish>  <people>
    /// R  <id>  <certificate>  <role>  <gender>  <event_year>  <first_name>  <surname>
    ///    <address>  <occupation>  <age>  <geo>  <cause_of_death>
    /// ```
    ///
    /// * The header line comes first. Then one `C` line per certificate
    ///   and one `R` line per record (a record line is a single line; it
    ///   is wrapped above only for width), in arena order.
    /// * `<kind>`, `<role>` and `<gender>` are the display codes
    ///   ([`CertificateKind::code`], [`Role::code`], [`Gender::code`]:
    ///   `b`, `Bm`, `f`, …). Ids and years are decimal integers.
    /// * `<people>` is the certificate's `(role, record)` list as
    ///   space-separated `role:record` entries, e.g. `Bb:6 Bm:7 Bf:8`.
    /// * `<geo>` is `lat,lon` in shortest round-trip decimal form, so
    ///   coordinates survive a round trip bit for bit.
    /// * An absent optional value is written `\N`. In text fields a
    ///   backslash, tab, newline and carriage return are written `\\`,
    ///   `\t`, `\n` and `\r`, so a value never splits a field or a line.
    ///
    /// [`Dataset::from_text`] reads it back to an equal dataset.
    #[must_use]
    pub fn to_text(&self) -> String {
        text::Text(self).to_string()
    }

    /// Parse the format written by [`Dataset::to_text`].
    ///
    /// Parsing checks syntax only; call [`Dataset::validate`] to check
    /// that ids, roles and certificates agree.
    ///
    /// # Errors
    /// Returns the first malformed line with its 1-based line number.
    pub fn from_text(s: &str) -> Result<Self, ParseError> {
        text::parse(s)
    }

    /// Validate internal invariants; used by tests and after deserialising
    /// externally-produced files.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.records.iter().enumerate() {
            if r.id.index() != i {
                return Err(format!("record at index {i} has id {}", r.id));
            }
            if r.certificate.index() >= self.certificates.len() {
                return Err(format!("record {} references missing certificate", r.id));
            }
            let cert = self.certificate(r.certificate);
            if r.role.certificate_kind() != cert.kind {
                return Err(format!("record {} role {} on wrong certificate kind", r.id, r.role));
            }
            if cert.record_with_role(r.role) != Some(r.id) {
                return Err(format!("certificate {} does not list record {}", cert.id, r.id));
            }
            if let Some(g) = r.role.implied_gender() {
                if !r.gender.compatible(g) {
                    return Err(format!("record {} gender conflicts with role {}", r.id, r.role));
                }
            }
        }
        for (i, c) in self.certificates.iter().enumerate() {
            if c.id.index() != i {
                return Err(format!("certificate at index {i} has id {}", c.id));
            }
            for &(role, rec) in &c.people {
                if rec.index() >= self.records.len() {
                    return Err(format!("certificate {} lists missing record", c.id));
                }
                if self.record(rec).role != role {
                    return Err(format!("certificate {} role mismatch for {}", c.id, rec));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::GeoCoord;

    fn tiny() -> Dataset {
        let mut ds = Dataset::new("tiny");
        let b = ds.push_certificate(CertificateKind::Birth, 1880);
        let bb = ds.push_record(b, Role::BirthBaby, Gender::Female);
        let bm = ds.push_record(b, Role::BirthMother, Gender::Female);
        ds.record_mut(bb).first_name = Some("mary".into());
        ds.record_mut(bm).first_name = Some("ann".into());
        ds
    }

    #[test]
    fn push_and_lookup() {
        let ds = tiny();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.record(RecordId(0)).first_name.as_deref(), Some("mary"));
        assert_eq!(ds.certificate(CertificateId(0)).people.len(), 2);
        ds.validate().unwrap();
    }

    #[test]
    fn records_with_role() {
        let ds = tiny();
        assert_eq!(ds.records_with_role(Role::BirthBaby).count(), 1);
        assert_eq!(ds.records_with_role(Role::DeathDeceased).count(), 0);
    }

    #[test]
    fn record_inherits_certificate_year() {
        let ds = tiny();
        assert_eq!(ds.record(RecordId(0)).event_year, 1880);
    }

    #[test]
    fn neighbours_carry_relationships() {
        let ds = tiny();
        let n = ds.certificate_neighbours(RecordId(0));
        assert_eq!(n, vec![(RecordId(1), Relationship::MotherOf)]);
    }

    /// Every field, absent options, and text that needs escaping.
    #[test]
    fn text_round_trip() {
        let mut ds = tiny();
        ds.name = "tiny\tset\\1\n".into();
        ds.certificates[0].parish = Some("portree\nnorth".into());
        let d = ds.push_certificate(CertificateKind::Death, 1901);
        let dd = ds.push_record(d, Role::DeathDeceased, Gender::Unknown);
        let r = ds.record_mut(dd);
        r.first_name = Some("ann\tmarie".into());
        r.surname = Some("mac\\leod \\N".into());
        r.address = Some("".into());
        r.occupation = Some("crofter\r\n".into());
        r.age = Some(61);
        r.geo = Some(GeoCoord { lat: 57.362_915_018_738_89, lon: -6.275_276_327_436_678_5 });
        r.cause_of_death = Some("\\N".into());
        let m = ds.push_certificate(CertificateKind::Marriage, 1902);
        let _ = ds.push_record(m, Role::MarriageGroom, Gender::Male);
        ds.push_certificate(CertificateKind::Birth, 1903); // no people

        let text = ds.to_text();
        assert_eq!(text.lines().count(), 1 + ds.certificates.len() + ds.records.len());
        let back = Dataset::from_text(&text).unwrap();
        assert_eq!(back.name, ds.name);
        assert_eq!(back.certificates, ds.certificates);
        assert_eq!(back.records, ds.records);
        back.validate().unwrap();
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn malformed_text_reports_the_line() {
        let text = tiny().to_text();
        let lines: Vec<&str> = text.lines().collect();
        // Line 1 is the header, line 2 the certificate, lines 3-4 records.
        let err = |i: usize, bad: &str| {
            let mut edited = lines.clone();
            edited[i - 1] = bad;
            Dataset::from_text(&edited.join("\n")).unwrap_err()
        };
        let truncated = &lines[2][..lines[2].rfind('\t').unwrap()];
        assert_eq!(
            err(3, truncated),
            ParseError { line: 3, kind: ParseErrorKind::FieldCount { expected: 13, found: 12 } }
        );
        let bad_id = lines[3].replacen("R\t1\t", "R\tx1\t", 1);
        assert_eq!(
            err(4, &bad_id),
            ParseError {
                line: 4,
                kind: ParseErrorKind::BadValue { field: "id", value: "x1".into() }
            }
        );
        let bad_role = lines[3].replace("\tBm\t", "\tZz\t");
        assert_eq!(
            err(4, &bad_role),
            ParseError { line: 4, kind: ParseErrorKind::UnknownRole("Zz".into()) }
        );
        let bad_kind = lines[1].replacen("\tb\t", "\tq\t", 1);
        assert_eq!(
            err(2, &bad_kind),
            ParseError { line: 2, kind: ParseErrorKind::UnknownKind("q".into()) }
        );
        assert_eq!(err(1, "snaps-dataset\t2\ttiny").kind, ParseErrorKind::BadHeader);
        assert_eq!(err(2, "X\t0").kind, ParseErrorKind::UnknownTag("X".into()));
        let bad_escape = lines[2].replace("mary", "ma\\qry");
        assert_eq!(err(3, &bad_escape).kind, ParseErrorKind::BadEscape { field: "first_name" });
        assert_eq!(Dataset::from_text("").unwrap_err().line, 1);
        assert_eq!(err(4, &bad_role).to_string(), "line 4: unknown role \"Zz\"");
    }

    #[test]
    fn validate_catches_gender_conflict() {
        let mut ds = tiny();
        ds.record_mut(RecordId(1)).gender = Gender::Male; // mother marked male
        assert!(ds.validate().is_err());
    }

    #[test]
    fn empty_dataset_is_valid() {
        let ds = Dataset::new("empty");
        assert!(ds.is_empty());
        ds.validate().unwrap();
    }
}
