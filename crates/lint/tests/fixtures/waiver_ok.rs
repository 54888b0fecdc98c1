// Fixture: a well-formed waiver silences the finding on its line and on the
// line a standalone annotation precedes.
pub fn kept_api() {} // snaps-lint: allow(dead-pub) -- fixture probe, paper-named API

// snaps-lint: allow(dead-pub) -- fixture probe, paper-named API
pub fn kept_too() {}
