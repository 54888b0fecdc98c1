// Fixture: bad waivers are findings themselves.
// An unknown rule name:
// snaps-lint: allow(no-such-rule) -- misspelled
fn a() {}

// A missing reason:
// snaps-lint: allow(dead-pub)
fn b() {}

// An unwaivable rule:
// snaps-lint: allow(allow-budget) -- nice try
fn c() {}
