//! Pass 1 of the workspace analyzer: a lightweight item model per file.
//!
//! Parses the stripped significant-token stream from [`crate::scanner`]
//! into function items (with their call, lock, taint and mutating-write
//! sites), public items (for the dead-pub rule), and a `use`-map (leaf
//! identifier → full import path) that [`crate::callgraph`] consults when
//! resolving call targets. This is deliberately *not* a Rust parser: it is
//! a linear cursor walk that understands just enough structure — `mod` /
//! `impl` / `trait` / `fn` nesting, attribute and generics skipping,
//! balanced delimiters — to attribute every call and lock site to the
//! function that contains it. Macro-definition bodies (`macro_rules!`) are
//! opaque to the model.

use crate::scanner::{Spanned, Tok};
use std::collections::BTreeMap;

/// What a call site names, before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// A path call: `foo(..)`, `module::foo(..)`, `Type::method(..)`,
    /// `snaps_core::pedigree::build(..)` — segments as written.
    Path(Vec<String>),
    /// A method call `recv.name(..)`: only the method name is knowable
    /// without type inference, so resolution falls back to *every*
    /// workspace `impl`/`trait` function of that name.
    Method(String),
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What the call names.
    pub target: CallTarget,
    /// 1-based source line.
    pub line: usize,
    /// Index of the call's name token in the file's stripped token stream
    /// (used to test containment in a lock's hold region).
    pub tok: usize,
    /// First argument when it is a bare identifier (`wait(q)` → `q`); used
    /// by the Condvar-wait exemption in the blocking-under-lock rule.
    pub arg0: Option<String>,
}

/// One `.lock()` call and the token range its guard is assumed held for:
/// to the end of the enclosing block (or a `drop(<guard>)`) when
/// let-bound, to the end of the statement when temporary.
#[derive(Debug, Clone)]
pub(crate) struct LockSite {
    /// 1-based source line of the `.lock()` call.
    pub line: usize,
    /// Half-open token-index range `(lock_tok, region_end)` of the hold.
    pub region: (usize, usize),
    /// Stable identity of the lock: `Owner.field` where `Owner` is the
    /// enclosing `impl` type (or the crate name in a free function) and
    /// `field` is the last receiver-chain segment before `.lock()` —
    /// `self.inner.lock()` in `impl ConnQueue` → `ConnQueue.inner`.
    /// Accessor calls keep a `()` suffix (`SimCache.shard()`); bare-ident
    /// receivers are resolved one `let`/`for` binding backwards.
    pub key: String,
    /// Name of the let-bound guard variable, when there is one
    /// (`let q = self.inner.lock()…` → `q`); consulted by the
    /// Condvar-wait exemption.
    pub bound: Option<String>,
}

/// One nondeterminism-source expression inside a function body: unordered
/// hash iteration, wall-clock reads, thread identity, seed-free RNG
/// construction, or pointer-address observation. Seeds the pass-4
/// determinism-taint dataflow.
#[derive(Debug, Clone)]
pub(crate) struct TaintSite {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description (`HashMap iteration`, `Instant::now()`, …).
    pub what: &'static str,
}

/// One mutating write inside a function body: a mutating-method call
/// (`push`, `insert`, `extend`, …), a non-commutative atomic operation
/// (`store`, `swap`, `compare_exchange`), or a compound assignment
/// (`+=`, `*=`, …). Consumed by the pass-4 shard-safety rule.
#[derive(Debug, Clone)]
pub(crate) struct MutWriteSite {
    /// 1-based source line.
    pub line: usize,
    /// Receiver chain, outermost-first, `()` suffix on call segments
    /// (`self.sink.lock().push(x)` → `["self", "sink", "lock()"]`). Empty
    /// when the left-hand side is not a recognisable chain.
    pub receiver: Vec<String>,
    /// The mutating operation (`push`, `store`, `+=`, …).
    pub op: String,
    /// For a single bare-ident receiver, the last non-adapter segment of
    /// the expression it was bound from (`let g = shard.lock();
    /// g.push(x)` → `lock()`), when one binding back resolves.
    pub via: Option<String>,
}

/// A module-level `static` item, with whether its type names an
/// interior-mutability container (`Mutex`, `RwLock`, `Atomic*`, `Cell`,
/// `RefCell`, `OnceLock`, `LazyLock`, `OnceCell`, `UnsafeCell`) — the only
/// kind of `static` writable from safe code.
#[derive(Debug, Clone)]
pub(crate) struct StaticItem {
    /// Item name.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// The declared type mentions an interior-mutability container.
    pub interior_mut: bool,
}

/// One function (or trait-method declaration) in the item model.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Short crate name (`core`, `serve`, …).
    pub krate: String,
    /// `::`-joined module path within the crate (empty at the crate root;
    /// `bin::snaps_serve` for `src/bin/snaps_serve.rs`).
    pub module: String,
    /// Enclosing `impl Type` / `trait Type` name, if any.
    pub impl_type: Option<String>,
    /// Function name.
    pub name: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared `pub` (unrestricted).
    pub is_pub: bool,
    /// Every call expression in the body, in token order.
    pub calls: Vec<CallSite>,
    /// Every `.lock()` hold region in the body.
    pub(crate) locks: Vec<LockSite>,
    /// Every nondeterminism-source expression in the body.
    pub(crate) taints: Vec<TaintSite>,
    /// Every mutating write in the body, in token order.
    pub(crate) mut_writes: Vec<MutWriteSite>,
}

/// A `pub` item declaration (dead-pub candidate). Restricted visibility
/// (`pub(crate)`, `pub(super)`, …) is excluded by construction.
#[derive(Debug, Clone)]
pub(crate) struct PubItem {
    /// Item kind keyword (`fn`, `struct`, `enum`, `trait`, `type`,
    /// `const`, `static`).
    pub kind: &'static str,
    /// Item name.
    pub name: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// The item model of one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Every function, in source order.
    pub fns: Vec<FnItem>,
    /// Every unrestricted-`pub` item, in source order.
    pub(crate) pub_items: Vec<PubItem>,
    /// Leaf identifier → full import path, from `use` declarations.
    pub uses: BTreeMap<String, Vec<String>>,
    /// Every module-level `static`, in source order.
    pub(crate) statics: Vec<StaticItem>,
    /// Identifiers appearing in unrestricted-`pub` declaration surfaces:
    /// `pub fn` signatures and `pub struct`/`enum`/`type` bodies. A pub
    /// type named here is pinned to `pub` by rustc's `private_interfaces`
    /// lint, so the dead-pub rule exempts it — it lives and dies with the
    /// item that exposes it.
    pub(crate) sig_idents: std::collections::BTreeSet<String>,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "let", "else",
    "mut", "ref", "box", "await", "yield", "unsafe", "dyn", "impl", "where", "pub", "use", "mod",
    "struct", "enum", "trait", "type", "const", "static", "crate", "super", "break", "continue",
    "Self", "self",
];

/// Value adapters that pass their receiver's payload through unchanged —
/// skipped when walking a binding expression back to the call that
/// produced the value.
const CHAIN_ADAPTERS: &[&str] = &[
    "as_mut",
    "as_ref",
    "borrow",
    "clone",
    "copied",
    "expect",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
];

/// Methods that observe a collection in storage order — nondeterministic
/// on a `HashMap`/`HashSet` receiver.
const ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// Seed-free RNG constructors (ambient-entropy entry points); calling one
/// makes the function a nondeterminism source.
const RNG_SOURCES: &[&str] = &["from_entropy", "getrandom", "thread_rng"];

/// Interior-mutability containers: the only way safe code writes through a
/// shared reference or a `static`. `Atomic*` is matched by prefix.
const INTERIOR_MUT_TYPES: &[&str] =
    &["Cell", "LazyLock", "Mutex", "OnceCell", "OnceLock", "RefCell", "RwLock", "UnsafeCell"];

/// Mutating collection/accumulator methods whose effect on a shared sink
/// is order-sensitive (appends, keyed overwrites, removals).
const MUT_METHODS: &[&str] = &[
    "append",
    "clear",
    "extend",
    "insert",
    "pop",
    "pop_front",
    "push",
    "push_back",
    "push_front",
    "remove",
    "truncate",
];

/// Order-sensitive atomic operations. Commutative read-modify-writes
/// (`fetch_add`, `fetch_sub`, `fetch_min`, `fetch_max`) are deliberately
/// excluded: their final state is interleaving-invariant.
const NONCOMMUTATIVE_ATOMICS: &[&str] =
    &["compare_exchange", "compare_exchange_weak", "store", "swap"];

/// Derive the `::`-joined module path of a repo-relative `.rs` file within
/// its crate (`src/lib.rs` → ``, `src/server.rs` → `server`,
/// `src/bin/snaps_serve.rs` → `bin::snaps_serve`, `src/foo/mod.rs` → `foo`).
#[must_use]
pub(crate) fn module_of(file: &str) -> String {
    let Some(pos) = file.find("src/") else { return String::new() };
    let rel = &file[pos + 4..];
    let rel = rel.strip_suffix(".rs").unwrap_or(rel);
    let mut parts: Vec<&str> = rel.split('/').collect();
    if parts.last() == Some(&"mod") {
        parts.pop();
    }
    if parts.len() == 1 && matches!(parts.first(), Some(&"lib") | Some(&"main")) {
        parts.pop();
    }
    parts.join("::")
}

/// Extract the item model of one non-test file from its stripped tokens.
#[must_use]
pub fn extract(krate: &str, file: &str, tokens: &[Spanned]) -> FileItems {
    // `.read()`/`.write()` are treated as lock acquisitions only in files
    // that mention RwLock at all — the names are far too common otherwise
    // (`io::Read::read`, wire writers).
    let has_rwlock = tokens.iter().any(|t| matches!(&t.tok, Tok::Ident(s) if s == "RwLock"));
    let mut p = Parser {
        toks: tokens,
        krate: krate.to_string(),
        file: file.to_string(),
        has_rwlock,
        out: FileItems::default(),
    };
    p.parse_scope(0, &module_of(file), None);
    p.out
}

struct Parser<'a> {
    toks: &'a [Spanned],
    krate: String,
    file: String,
    has_rwlock: bool,
    out: FileItems,
}

impl Parser<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize) -> Option<char> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    fn line(&self, i: usize) -> usize {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    /// Skip a balanced `open`…`close` pair starting at `i` (which must sit
    /// on `open`); returns the index just past the matching `close`.
    fn skip_balanced(&self, i: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.toks.len() {
            match self.punct(j) {
                Some(c) if c == open => depth += 1,
                Some(c) if c == close => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Skip a generics list starting at `i` (on `<`); `->` arrows inside do
    /// not close the list. Returns the index just past the matching `>`.
    fn skip_generics(&self, i: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.toks.len() {
            match self.punct(j) {
                Some('<') => depth += 1,
                Some('>') if self.punct(j.wrapping_sub(1)) == Some('-') => {} // part of `->`
                Some('>') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Skip an attribute starting at `i` (on `#`); handles `#[..]` and
    /// `#![..]`. Returns the index just past the closing `]`.
    fn skip_attr(&self, i: usize) -> usize {
        let mut j = i + 1;
        if self.punct(j) == Some('!') {
            j += 1;
        }
        if self.punct(j) == Some('[') {
            return self.skip_balanced(j, '[', ']');
        }
        j
    }

    /// Parse items until the scope's closing `}` (or end of stream).
    /// Returns the index just past the `}`.
    fn parse_scope(&mut self, mut i: usize, module: &str, impl_type: Option<&str>) -> usize {
        let mut is_pub = false;
        while i < self.toks.len() {
            match &self.toks.get(i).map(|t| t.tok.clone()) {
                Some(Tok::Punct('#')) => {
                    i = self.skip_attr(i);
                    continue;
                }
                Some(Tok::Punct('}')) => return i + 1,
                Some(Tok::Punct('{')) => {
                    i = self.skip_balanced(i, '{', '}');
                    is_pub = false;
                    continue;
                }
                Some(Tok::Punct(_)) | None => {
                    i += 1;
                    continue;
                }
                Some(Tok::Ident(id)) => match id.as_str() {
                    "pub" => {
                        if self.punct(i + 1) == Some('(') {
                            // Restricted visibility: not a workspace-pub item.
                            i = self.skip_balanced(i + 1, '(', ')');
                            is_pub = false;
                        } else {
                            is_pub = true;
                            i += 1;
                        }
                    }
                    "use" => {
                        i = self.parse_use(i + 1);
                        is_pub = false;
                    }
                    "mod" => {
                        let name = self.ident(i + 1).unwrap_or("").to_string();
                        i += 2;
                        if self.punct(i) == Some('{') {
                            let inner =
                                if module.is_empty() { name } else { format!("{module}::{name}") };
                            i = self.parse_scope(i + 1, &inner, None);
                        } else if self.punct(i) == Some(';') {
                            i += 1;
                        }
                        is_pub = false;
                    }
                    "impl" => {
                        i = self.parse_impl(i + 1, module);
                        is_pub = false;
                    }
                    "trait" => {
                        let name = self.ident(i + 1).unwrap_or("").to_string();
                        if is_pub && !name.is_empty() {
                            self.push_pub("trait", &name, self.line(i));
                        }
                        let mut j = i + 2;
                        while j < self.toks.len() && self.punct(j) != Some('{') {
                            if self.punct(j) == Some('<') {
                                j = self.skip_generics(j);
                            } else {
                                j += 1;
                            }
                        }
                        i = self.parse_scope(j + 1, module, Some(&name));
                        is_pub = false;
                    }
                    "fn" => {
                        i = self.parse_fn(i, module, impl_type, is_pub);
                        is_pub = false;
                    }
                    "struct" | "enum" | "union" => {
                        let kind = if id == "enum" { "enum" } else { "struct" };
                        let name = self.ident(i + 1).unwrap_or("").to_string();
                        if is_pub && !name.is_empty() {
                            self.push_pub(kind, &name, self.line(i));
                        }
                        let end = self.skip_type_body(i + 2);
                        if is_pub {
                            self.collect_sig_idents(i + 2, end);
                        }
                        i = end;
                        is_pub = false;
                    }
                    "type" => {
                        let name = self.ident(i + 1).unwrap_or("").to_string();
                        if is_pub && !name.is_empty() && impl_type.is_none() {
                            self.push_pub("type", &name, self.line(i));
                        }
                        let end = self.skip_to_semi(i + 2);
                        if is_pub && impl_type.is_none() {
                            self.collect_sig_idents(i + 2, end);
                        }
                        i = end;
                        is_pub = false;
                    }
                    "const" | "static" => {
                        if self.ident(i + 1) == Some("fn") {
                            i = self.parse_fn(i + 1, module, impl_type, is_pub);
                            is_pub = false;
                            continue;
                        }
                        let mut j = i + 1;
                        if self.ident(j) == Some("mut") {
                            j += 1;
                        }
                        let name = self.ident(j).unwrap_or("").to_string();
                        let kind = if id == "const" { "const" } else { "static" };
                        // `const` inside an impl/trait is an associated item,
                        // not an independent API surface.
                        if is_pub && !name.is_empty() && name != "_" && impl_type.is_none() {
                            self.push_pub(kind, &name, self.line(i));
                        }
                        let end = self.skip_to_semi(j + 1);
                        if id == "static" && !name.is_empty() && impl_type.is_none() {
                            let interior_mut = (j + 1..end).any(|k| {
                                self.ident(k).is_some_and(|t| {
                                    INTERIOR_MUT_TYPES.contains(&t) || t.starts_with("Atomic")
                                })
                            });
                            self.out.statics.push(StaticItem {
                                name,
                                line: self.line(i),
                                interior_mut,
                            });
                        }
                        i = end;
                        is_pub = false;
                    }
                    "macro_rules" => {
                        let mut j = i + 1; // `!`
                        while j < self.toks.len()
                            && !matches!(self.punct(j), Some('{') | Some('(') | Some('['))
                        {
                            j += 1;
                        }
                        i = match self.punct(j) {
                            Some('{') => self.skip_balanced(j, '{', '}'),
                            Some('(') => self.skip_balanced(j, '(', ')'),
                            Some('[') => self.skip_balanced(j, '[', ']'),
                            _ => j,
                        };
                        is_pub = false;
                    }
                    _ => i += 1, // modifiers (`unsafe`, `async`, `extern`, …) and stray idents
                },
            }
        }
        i
    }

    fn push_pub(&mut self, kind: &'static str, name: &str, line: usize) {
        self.out.pub_items.push(PubItem {
            kind,
            name: name.to_string(),
            file: self.file.clone(),
            line,
        });
    }

    /// Record every identifier in `[start, end)` as part of a pub
    /// declaration surface (signature or type body).
    fn collect_sig_idents(&mut self, start: usize, end: usize) {
        for t in &self.toks[start.min(self.toks.len())..end.min(self.toks.len())] {
            if let Tok::Ident(id) = &t.tok {
                self.out.sig_idents.insert(id.clone());
            }
        }
    }

    /// Skip a struct/enum/union body starting just past the name: generics,
    /// optional where-clause, then `{..}`, `(..);`, or `;`.
    fn skip_type_body(&self, mut i: usize) -> usize {
        while i < self.toks.len() {
            match self.punct(i) {
                Some('<') => i = self.skip_generics(i),
                Some('{') => return self.skip_balanced(i, '{', '}'),
                Some('(') => {
                    i = self.skip_balanced(i, '(', ')');
                    // tuple struct: a `;` (possibly after a where-clause) ends it
                }
                Some(';') => return i + 1,
                _ => i += 1,
            }
        }
        i
    }

    /// Skip to the `;` ending a const/static/type item, stepping over any
    /// balanced braces, brackets, or parens in the initialiser.
    fn skip_to_semi(&self, mut i: usize) -> usize {
        while i < self.toks.len() {
            match self.punct(i) {
                Some(';') => return i + 1,
                Some('{') => i = self.skip_balanced(i, '{', '}'),
                Some('[') => i = self.skip_balanced(i, '[', ']'),
                Some('(') => i = self.skip_balanced(i, '(', ')'),
                Some('<') => i = self.skip_generics(i),
                _ => i += 1,
            }
        }
        i
    }

    /// Parse a `use` declaration starting just past the `use` keyword,
    /// recording leaf-name → full-path entries. Returns the index past `;`.
    fn parse_use(&mut self, i: usize) -> usize {
        let end = self.skip_to_semi(i);
        let mut prefix: Vec<String> = Vec::new();
        self.parse_use_tree(i, end.saturating_sub(1), &mut prefix);
        end
    }

    /// Parse one use-tree between `i` and `end` (exclusive) with the given
    /// path prefix. Handles `a::b`, groups `{..}`, renames `as x`, and `*`.
    fn parse_use_tree(&mut self, mut i: usize, end: usize, prefix: &mut Vec<String>) {
        let depth_at_entry = prefix.len();
        while i < end {
            match &self.toks.get(i).map(|t| t.tok.clone()) {
                Some(Tok::Ident(id)) if id == "as" => {
                    // rename: map the alias to the path collected so far
                    if let Some(alias) = self.ident(i + 1) {
                        self.out.uses.insert(alias.to_string(), prefix.clone());
                    }
                    i += 2;
                    prefix.truncate(depth_at_entry);
                }
                Some(Tok::Ident(id)) => {
                    prefix.push(id.clone());
                    i += 1;
                    // leaf if not followed by `::`
                    let sep = self.punct(i) == Some(':') && self.punct(i + 1) == Some(':');
                    if sep {
                        i += 2;
                        if self.punct(i) == Some('{') {
                            let group_end = self.skip_balanced(i, '{', '}');
                            self.parse_use_tree(i + 1, group_end - 1, prefix);
                            i = group_end;
                            prefix.truncate(depth_at_entry);
                        }
                    } else {
                        // `a::b as c` is handled by the `as` arm; otherwise
                        // this ident is the imported name.
                        if self.ident(i) != Some("as") {
                            if let Some(leaf) = prefix.last().cloned() {
                                self.out.uses.insert(leaf, prefix.clone());
                            }
                            prefix.truncate(depth_at_entry);
                        }
                    }
                }
                Some(Tok::Punct(',')) => {
                    prefix.truncate(depth_at_entry);
                    i += 1;
                }
                Some(Tok::Punct('*')) => i += 1, // glob: nothing to record
                _ => i += 1,
            }
        }
        prefix.truncate(depth_at_entry);
    }

    /// Parse an `impl` header starting just past the keyword and recurse
    /// into its body with the implemented type's name.
    fn parse_impl(&mut self, mut i: usize, module: &str) -> usize {
        if self.punct(i) == Some('<') {
            i = self.skip_generics(i);
        }
        let mut last_ident = String::new();
        while i < self.toks.len() {
            match &self.toks.get(i).map(|t| t.tok.clone()) {
                Some(Tok::Ident(id)) if id == "for" => {
                    last_ident.clear(); // the type comes after `for`
                    i += 1;
                }
                Some(Tok::Ident(id)) if id == "where" => {
                    // skip the where-clause up to the body
                    while i < self.toks.len() && self.punct(i) != Some('{') {
                        if self.punct(i) == Some('<') {
                            i = self.skip_generics(i);
                        } else {
                            i += 1;
                        }
                    }
                }
                Some(Tok::Ident(id)) => {
                    last_ident = id.clone();
                    i += 1;
                }
                Some(Tok::Punct('<')) => i = self.skip_generics(i),
                Some(Tok::Punct('(')) => i = self.skip_balanced(i, '(', ')'),
                Some(Tok::Punct('{')) => {
                    return self.parse_scope(i + 1, module, Some(&last_ident));
                }
                Some(Tok::Punct(';')) => return i + 1, // `impl Trait for T;` (never in practice)
                _ => i += 1,
            }
        }
        i
    }

    /// Parse a `fn` item starting at the `fn` keyword. Returns the index
    /// past the body's `}` (or past `;` for bodyless trait declarations).
    fn parse_fn(&mut self, i: usize, module: &str, impl_type: Option<&str>, is_pub: bool) -> usize {
        let line = self.line(i);
        let Some(name) = self.ident(i + 1).map(str::to_string) else { return i + 1 };
        // Scan the signature for the body `{` or a `;`; `;` inside array
        // types (`[u8; 4]`) is shielded by bracket-depth tracking.
        let mut j = i + 2;
        let mut bracket_depth = 0usize;
        let body_start = loop {
            if j >= self.toks.len() {
                break None;
            }
            match self.punct(j) {
                Some('<') => {
                    j = self.skip_generics(j);
                    continue;
                }
                Some('[') => bracket_depth += 1,
                Some(']') => bracket_depth = bracket_depth.saturating_sub(1),
                Some('{') if bracket_depth == 0 => break Some(j),
                Some(';') if bracket_depth == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let mut item = FnItem {
            krate: self.krate.clone(),
            module: module.to_string(),
            impl_type: impl_type.map(str::to_string),
            name: name.clone(),
            file: self.file.clone(),
            line,
            is_pub,
            calls: Vec::new(),
            locks: Vec::new(),
            taints: Vec::new(),
            mut_writes: Vec::new(),
        };
        if is_pub && name != "main" {
            self.push_pub("fn", &name, line);
            self.collect_sig_idents(i + 2, body_start.unwrap_or(j));
        }
        let Some(start) = body_start else {
            self.out.fns.push(item);
            return j + 1;
        };
        let end = self.skip_balanced(start, '{', '}');
        let hashes = self.hash_env(i + 2, end.saturating_sub(1));
        self.analyze_body(start + 1, end.saturating_sub(1), &mut item, &hashes);
        self.out.fns.push(item);
        end
    }

    /// Identifiers bound to a `HashMap`/`HashSet` within this function:
    /// parameter or `let` annotations naming the type, plus
    /// `let x = HashMap::…` initialisers. Function-local only — hash-typed
    /// *fields* are covered by the file-level `hash-iter` token rule.
    fn hash_env(&self, sig_start: usize, body_end: usize) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        let is_hash = |id: Option<&str>| matches!(id, Some("HashMap") | Some("HashSet"));
        for k in sig_start..body_end {
            let Some(x) = self.ident(k) else { continue };
            if self.punct(k.wrapping_sub(1)) == Some(':') {
                continue; // `a::b` — path segment, not a binding
            }
            // `x: [&mut] HashMap<..>` (parameter or let annotation).
            if self.punct(k + 1) == Some(':') && self.punct(k + 2) != Some(':') {
                let mut t = k + 2;
                while matches!(self.punct(t), Some('&')) || self.ident(t) == Some("mut") {
                    t += 1;
                }
                if is_hash(self.ident(t)) {
                    out.insert(x.to_string());
                }
            }
            // `let [mut] x = HashMap::…` initialiser.
            if self.punct(k + 1) == Some('=')
                && is_hash(self.ident(k + 2))
                && self.punct(k + 3) == Some(':')
            {
                out.insert(x.to_string());
            }
        }
        out
    }

    /// Walk a function body `[start, end)` collecting call, lock, taint and
    /// mutating-write sites. `hashes` are the function's hash-bound
    /// identifiers (see [`Parser::hash_env`]).
    fn analyze_body(
        &self,
        start: usize,
        end: usize,
        item: &mut FnItem,
        hashes: &std::collections::BTreeSet<String>,
    ) {
        let mut depth = 0usize; // brace depth relative to the body
        let mut i = start;
        while i < end {
            match &self.toks.get(i).map(|t| t.tok.clone()) {
                Some(Tok::Punct('{')) => depth += 1,
                Some(Tok::Punct('}')) => depth = depth.saturating_sub(1),
                Some(Tok::Punct(op @ ('+' | '-' | '*' | '/' | '%')))
                    if self.punct(i + 1) == Some('=') =>
                {
                    self.compound_assign(i, *op, start, item);
                }
                Some(Tok::Ident(id)) => {
                    self.taint_site(i, start, hashes, item);
                    if self.is_call_head(i) {
                        let is_method = self.punct(i.wrapping_sub(1)) == Some('.');
                        if is_method
                            && (MUT_METHODS.contains(&id.as_str())
                                || NONCOMMUTATIVE_ATOMICS.contains(&id.as_str()))
                        {
                            let receiver = self.receiver_chain(i - 1, start.saturating_sub(1));
                            let via = match receiver.as_slice() {
                                [base] if !base.ends_with("()") => {
                                    self.resolve_binding(base, start, i)
                                }
                                _ => None,
                            };
                            item.mut_writes.push(MutWriteSite {
                                line: self.line(i),
                                receiver,
                                op: id.clone(),
                                via,
                            });
                        }
                        let arg0 = if self.punct(i + 1) == Some('(')
                            && matches!(self.punct(i + 3), Some(',') | Some(')'))
                        {
                            self.ident(i + 2).map(str::to_string)
                        } else {
                            None
                        };
                        if is_method {
                            let is_lock = id == "lock"
                                || (self.has_rwlock && matches!(id.as_str(), "read" | "write"));
                            if is_lock {
                                let (region, bound) = self.lock_region(i, start, end, depth);
                                let key = self.lock_key(i, start, item);
                                item.locks.push(LockSite {
                                    line: self.line(i),
                                    region,
                                    key,
                                    bound,
                                });
                            }
                            item.calls.push(CallSite {
                                target: CallTarget::Method(id.clone()),
                                line: self.line(i),
                                tok: i,
                                arg0,
                            });
                        } else if !NON_CALL_IDENTS.contains(&id.as_str())
                            && self.ident(i.wrapping_sub(1)) != Some("fn")
                        {
                            let path = self.collect_path_backward(i);
                            item.calls.push(CallSite {
                                target: CallTarget::Path(path),
                                line: self.line(i),
                                tok: i,
                                arg0,
                            });
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Record a nondeterminism source when the identifier at `i` begins
    /// one: hash iteration, `Instant`/`SystemTime::now`, thread identity,
    /// a seed-free RNG constructor, or a pointer-address observation.
    /// `start` is the first body token (the receiver-chain floor is just
    /// before it). Format-string `{:p}` pointer printing is invisible to
    /// the stripped token stream; `as_ptr`/`addr_of` act as its proxy.
    fn taint_site(
        &self,
        i: usize,
        start: usize,
        hashes: &std::collections::BTreeSet<String>,
        item: &mut FnItem,
    ) {
        let Some(id) = self.ident(i) else { return };
        let qualifies = |b: &str| {
            self.punct(i + 1) == Some(':')
                && self.punct(i + 2) == Some(':')
                && self.ident(i + 3) == Some(b)
        };
        let mut hit = |line: usize, what: &'static str| item.taints.push(TaintSite { line, what });
        match id {
            "Instant" if qualifies("now") => hit(self.line(i), "`Instant::now()`"),
            "SystemTime" if qualifies("now") => hit(self.line(i), "`SystemTime::now()`"),
            "thread" if qualifies("current") => hit(self.line(i), "`thread::current()`"),
            "OsRng" => hit(self.line(i), "seed-free RNG (`OsRng`)"),
            _ if RNG_SOURCES.contains(&id) && self.is_call_head(i) => {
                hit(self.line(i), "seed-free RNG constructor");
            }
            "random"
                if self.is_call_head(i)
                    && self.punct(i.wrapping_sub(1)) == Some(':')
                    && self.punct(i.wrapping_sub(2)) == Some(':')
                    && self.ident(i.wrapping_sub(3)) == Some("rand") =>
            {
                hit(self.line(i), "seed-free RNG constructor");
            }
            "as_ptr" | "as_mut_ptr"
                if self.punct(i.wrapping_sub(1)) == Some('.') && self.is_call_head(i) =>
            {
                hit(self.line(i), "pointer address (`as_ptr`)");
            }
            "addr_of" | "addr_of_mut" if self.is_call_head(i) => {
                hit(self.line(i), "pointer address (`addr_of`)");
            }
            // `for x in h { … }` over a hash-bound identifier.
            "in" => {
                let mut j = i + 1;
                while matches!(self.punct(j), Some('&')) || self.ident(j) == Some("mut") {
                    j += 1;
                }
                if self.ident(j).is_some_and(|x| hashes.contains(x))
                    && self.punct(j + 1) == Some('{')
                {
                    hit(self.line(i), "`HashMap`/`HashSet` iteration");
                }
            }
            // `h.iter()`-style calls on a hash-bound receiver.
            _ if ITER_METHODS.contains(&id)
                && self.punct(i.wrapping_sub(1)) == Some('.')
                && self.is_call_head(i) =>
            {
                let chain = self.receiver_chain(i - 1, start.saturating_sub(1));
                if chain.iter().any(|s| hashes.contains(s.trim_end_matches("()"))) {
                    hit(self.line(i), "`HashMap`/`HashSet` iteration");
                }
            }
            _ => {}
        }
    }

    /// Record the compound assignment whose operator char sits at `i`
    /// (`self.total += x`, `acc[k] *= y`) as a mutating write.
    fn compound_assign(&self, i: usize, op: char, start: usize, item: &mut FnItem) {
        let floor = start.saturating_sub(1);
        let k = i.wrapping_sub(1);
        // End of the left-hand side: a bare/chained identifier, or an
        // index expression whose base is one.
        let lhs_end = if self.punct(k) == Some(']') {
            let mut depth = 0usize;
            let mut j = k;
            loop {
                match self.punct(j) {
                    Some(']') => depth += 1,
                    Some('[') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j <= floor {
                    return;
                }
                j -= 1;
            }
            j.wrapping_sub(1)
        } else {
            k
        };
        let Some(base) = self.ident(lhs_end) else { return };
        let mut receiver = if lhs_end > floor && self.punct(lhs_end.wrapping_sub(1)) == Some('.') {
            self.receiver_chain(lhs_end - 1, floor)
        } else {
            Vec::new()
        };
        receiver.push(base.to_string());
        let via = match receiver.as_slice() {
            [b] if !b.ends_with("()") => self.resolve_binding(b, start, i),
            _ => None,
        };
        item.mut_writes.push(MutWriteSite {
            line: self.line(i),
            receiver,
            op: format!("{op}="),
            via,
        });
    }

    /// Is the identifier at `i` the head of a call — followed by `(`,
    /// optionally through a turbofish `::<..>`?
    fn is_call_head(&self, i: usize) -> bool {
        if self.punct(i + 1) == Some('(') {
            return true;
        }
        if self.punct(i + 1) == Some(':')
            && self.punct(i + 2) == Some(':')
            && self.punct(i + 3) == Some('<')
        {
            let j = self.skip_generics(i + 3);
            return self.punct(j) == Some('(');
        }
        false
    }

    /// Collect the `::`-separated path ending at the identifier `i`,
    /// walking backwards (`snaps_core :: pedigree :: build` → three
    /// segments).
    fn collect_path_backward(&self, i: usize) -> Vec<String> {
        let mut segs = vec![self.ident(i).unwrap_or("").to_string()];
        let mut j = i;
        while j >= 3
            && self.punct(j - 1) == Some(':')
            && self.punct(j - 2) == Some(':')
            && self.ident(j - 3).is_some()
        {
            segs.insert(0, self.ident(j - 3).unwrap_or("").to_string());
            j -= 3;
        }
        segs
    }

    /// Compute the hold region of the `.lock()` whose name token is at `i`,
    /// plus the guard's binding name when it is let-bound.
    ///
    /// A let-bound guard is held to the end of the enclosing block (or an
    /// explicit `drop(<name>)`); a temporary guard to the end of the
    /// statement. `depth` is the brace depth of the lock site relative to
    /// the body.
    fn lock_region(
        &self,
        i: usize,
        body_start: usize,
        body_end: usize,
        depth: usize,
    ) -> ((usize, usize), Option<String>) {
        // Find the statement start: the nearest `;`, `{`, or `}` behind us.
        let mut s = i;
        while s > body_start {
            if matches!(self.punct(s - 1), Some(';') | Some('{') | Some('}')) {
                break;
            }
            s -= 1;
        }
        // Let-bound? Capture the bound name when it is a plain identifier
        // *and* the binding actually holds the guard: after `.lock(..)` the
        // chain may only continue through guard-preserving adapters
        // (`unwrap`/`expect`/`unwrap_or_else`, `?`) before the statement
        // ends. `let v = m.lock().get(k);` binds `.get`'s result — the
        // guard itself is a temporary dropped at the `;`.
        let mut bound: Option<Option<String>> = None; // Some(name?) when let-bound
        let mut k = s;
        while k < i {
            if self.ident(k) == Some("let") {
                let mut n = k + 1;
                if self.ident(n) == Some("mut") {
                    n += 1;
                }
                if self.ident(n).is_some() && self.punct(n + 1) == Some('=') {
                    let mut c = self.skip_balanced(i + 1, '(', ')');
                    loop {
                        if self.punct(c) == Some('?') {
                            c += 1;
                        } else if self.punct(c) == Some('.')
                            && matches!(
                                self.ident(c + 1),
                                Some("unwrap") | Some("expect") | Some("unwrap_or_else")
                            )
                            && self.punct(c + 2) == Some('(')
                        {
                            c = self.skip_balanced(c + 2, '(', ')');
                        } else {
                            break;
                        }
                    }
                    if matches!(self.punct(c), Some(';')) {
                        bound = Some(self.ident(n).map(str::to_string));
                    }
                }
                break;
            }
            k += 1;
        }
        let bound_name = bound.clone().flatten();
        let mut d = depth;
        let mut j = i;
        while j < body_end {
            match self.punct(j) {
                Some('{') => d += 1,
                Some('}') => {
                    if d == 0 {
                        return ((i, j), bound_name); // body ends
                    }
                    d -= 1;
                    if d < depth {
                        return ((i, j), bound_name); // enclosing block closes
                    }
                }
                Some(';') if bound.is_none() && d == depth && j > i => {
                    return ((i, j), bound_name); // temporary guard: statement ends
                }
                _ => {}
            }
            // `drop(<name>)` releases a named guard early.
            if let Some(Some(name)) = &bound {
                if self.ident(j) == Some("drop")
                    && self.punct(j + 1) == Some('(')
                    && self.ident(j + 2) == Some(name.as_str())
                    && self.punct(j + 3) == Some(')')
                {
                    return ((i, j), bound_name);
                }
            }
            j += 1;
        }
        ((i, body_end), bound_name)
    }

    /// Find the `(` matching the `)` at `i`, scanning backward but never
    /// past `floor`.
    fn matching_open_back(&self, i: usize, floor: usize) -> Option<usize> {
        let mut depth = 0usize;
        let mut j = i;
        loop {
            match self.punct(j) {
                Some(')') => depth += 1,
                Some('(') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
            if j <= floor {
                return None;
            }
            j -= 1;
        }
    }

    /// Collect the `.`-separated receiver chain ending just before the `.`
    /// at `dot`, outermost-first: `self.inner.lock()` → `["self",
    /// "inner"]`. Call segments keep a `()` suffix: `self.shard(k).lock()`
    /// → `["self", "shard()"]`.
    fn receiver_chain(&self, dot: usize, floor: usize) -> Vec<String> {
        let mut segs: Vec<String> = Vec::new();
        let mut j = dot; // always on a '.'
        while j > floor {
            let k = j - 1; // token before the '.'
            if self.punct(k) == Some(')') {
                let Some(open) = self.matching_open_back(k, floor) else { break };
                if open <= floor {
                    break;
                }
                let Some(name) = self.ident(open - 1) else { break };
                segs.push(format!("{name}()"));
                if open >= 2 && open - 1 > floor && self.punct(open - 2) == Some('.') {
                    j = open - 2;
                    continue;
                }
            } else if let Some(name) = self.ident(k) {
                segs.push(name.to_string());
                if k > floor && self.punct(k - 1) == Some('.') {
                    j = k - 1;
                    continue;
                }
            }
            break;
        }
        segs.reverse();
        segs
    }

    /// Derive the stable lock key for the `.lock()` whose name token is at
    /// `i`: `Owner.field`, with `Owner` the enclosing impl type or the
    /// crate name. A single bare-ident receiver is resolved one binding
    /// backwards (`let Some(m) = self.shard(k)` … `m.lock()` →
    /// `SimCache.shard()`); an unresolvable receiver keeps its own name
    /// (closure parameters, in particular).
    fn lock_key(&self, i: usize, body_start: usize, item: &FnItem) -> String {
        let owner = item.impl_type.clone().unwrap_or_else(|| item.krate.clone());
        let floor = body_start.saturating_sub(1);
        let mut name = String::from("<expr>");
        if i >= 1 && self.punct(i - 1) == Some('.') {
            let segs = self.receiver_chain(i - 1, floor);
            match segs.as_slice() {
                [] => {}
                [base] => {
                    if base.ends_with("()") {
                        name.clone_from(base);
                    } else {
                        name = self
                            .resolve_binding(base, body_start, i)
                            .unwrap_or_else(|| base.clone());
                    }
                }
                [.., last] => name.clone_from(last),
            }
        }
        format!("{owner}.{name}")
    }

    /// Resolve a bare-ident lock receiver to the field or accessor it was
    /// bound from: the closest preceding `let [mut] [Some(/Ok(] x [)] =
    /// expr` or `for x in expr` before token `before`, taking the binding
    /// expression's last non-adapter segment. Returns `None` when no
    /// binding is found (e.g. closure parameters).
    fn resolve_binding(&self, x: &str, body_start: usize, before: usize) -> Option<String> {
        let mut found: Option<String> = None;
        let mut k = body_start;
        while k < before {
            if self.ident(k) == Some("for")
                && self.ident(k + 1) == Some(x)
                && self.ident(k + 2) == Some("in")
            {
                if let Some(n) = self.binding_expr_name(k + 3, before) {
                    found = Some(n);
                }
                k += 3;
                continue;
            }
            if self.ident(k) == Some("let") {
                // locate `x` within the pattern, skipping `mut`, a wrapping
                // `Some(`/`Ok(`, and references
                let mut n = k + 1;
                let limit = (k + 6).min(before);
                let mut hit: Option<usize> = None;
                while n < limit {
                    if self.ident(n) == Some(x) {
                        hit = Some(n);
                        break;
                    }
                    match self.ident(n) {
                        Some("mut" | "Some" | "Ok" | "ref") => n += 1,
                        None if matches!(self.punct(n), Some('(' | '&')) => n += 1,
                        _ => break,
                    }
                }
                if let Some(h) = hit {
                    let mut e = h + 1;
                    while self.punct(e) == Some(')') {
                        e += 1; // close the wrapping pattern
                    }
                    if self.punct(e) == Some('=') {
                        if let Some(nm) = self.binding_expr_name(e + 1, before) {
                            found = Some(nm);
                        }
                    }
                }
            }
            k += 1;
        }
        found
    }

    /// The last non-adapter segment of the field/method chain starting at
    /// `p` (`&self.shards` → `shards`; `self.shard(key)` → `shard()`;
    /// `self.inner.as_ref()?` → `inner`). `self` alone resolves to nothing.
    fn binding_expr_name(&self, mut p: usize, end: usize) -> Option<String> {
        while matches!(self.punct(p), Some('&' | '*')) || self.ident(p) == Some("mut") {
            p += 1;
        }
        let mut segs: Vec<String> = Vec::new();
        while p < end {
            let Some(id) = self.ident(p) else { break };
            let mut seg = id.to_string();
            p += 1;
            if self.punct(p) == Some('(') {
                p = self.skip_balanced(p, '(', ')');
                seg.push_str("()");
            }
            segs.push(seg);
            if self.punct(p) == Some('?') {
                p += 1;
            }
            if self.punct(p) == Some('.') {
                p += 1;
            } else {
                break;
            }
        }
        while segs.last().is_some_and(|s| CHAIN_ADAPTERS.contains(&s.trim_end_matches("()"))) {
            segs.pop();
        }
        segs.last().filter(|s| s.as_str() != "self").cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner;

    fn model(src: &str) -> FileItems {
        let scan = scanner::scan(src);
        let toks = scanner::strip_test_regions(scan.tokens);
        extract("core", "crates/core/src/x.rs", &toks)
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_of("crates/serve/src/lib.rs"), "");
        assert_eq!(module_of("crates/serve/src/server.rs"), "server");
        assert_eq!(module_of("crates/serve/src/bin/snaps_serve.rs"), "bin::snaps_serve");
        assert_eq!(module_of("src/main.rs"), "");
        assert_eq!(module_of("crates/core/src/foo/mod.rs"), "foo");
        assert_eq!(module_of("crates/core/src/foo/bar.rs"), "foo::bar");
    }

    #[test]
    fn fn_and_calls_extracted() {
        let m = model(
            "pub fn outer(x: u8) -> u8 { helper(x); snaps_query::process::run(x); x.finish() }\n\
             fn helper(_x: u8) {}\n",
        );
        assert_eq!(m.fns.len(), 2);
        let outer = &m.fns[0];
        assert_eq!(outer.name, "outer");
        assert!(outer.is_pub);
        assert_eq!(outer.calls.len(), 3);
        assert_eq!(outer.calls[0].target, CallTarget::Path(vec!["helper".into()]));
        assert_eq!(
            outer.calls[1].target,
            CallTarget::Path(vec!["snaps_query".into(), "process".into(), "run".into()])
        );
        assert_eq!(outer.calls[2].target, CallTarget::Method("finish".into()));
    }

    #[test]
    fn impl_and_trait_methods_carry_type() {
        let m = model(
            "struct S;\nimpl S { pub fn a(&self) {} }\n\
             impl Default for S { fn default() -> Self { S } }\n\
             trait T { fn decl(&self); fn provided(&self) { self.decl() } }\n",
        );
        let names: Vec<(Option<&str>, &str)> =
            m.fns.iter().map(|f| (f.impl_type.as_deref(), f.name.as_str())).collect();
        assert_eq!(
            names,
            vec![
                (Some("S"), "a"),
                (Some("S"), "default"),
                (Some("T"), "decl"),
                (Some("T"), "provided"),
            ]
        );
    }

    #[test]
    fn use_map_resolves_leaves_groups_and_renames() {
        let m = model(
            "use snaps_query::process::run;\nuse snaps_model::{EntityId, Gender};\n\
             use std::collections::BTreeMap as Map;\n",
        );
        assert_eq!(
            m.uses.get("run"),
            Some(&vec!["snaps_query".to_string(), "process".to_string(), "run".to_string()])
        );
        assert_eq!(
            m.uses.get("Gender"),
            Some(&vec!["snaps_model".to_string(), "Gender".to_string()])
        );
        assert_eq!(
            m.uses.get("Map"),
            Some(&vec!["std".to_string(), "collections".to_string(), "BTreeMap".to_string()])
        );
    }

    #[test]
    fn let_bound_lock_held_to_block_end() {
        let m = model(
            "fn f(&self) { { let mut g = self.m.lock(); g.push(1); } self.after(); }\n\
             struct X;\n",
        );
        let f = &m.fns[0];
        assert_eq!(f.locks.len(), 1);
        let (lo, hi) = f.locks[0].region;
        let push = f.calls.iter().find(|c| c.target == CallTarget::Method("push".into())).unwrap();
        let after =
            f.calls.iter().find(|c| c.target == CallTarget::Method("after".into())).unwrap();
        assert!(push.tok > lo && push.tok < hi, "push inside hold region");
        assert!(after.tok > hi, "call after block is outside the region");
    }

    #[test]
    fn temporary_lock_ends_at_statement() {
        let m = model("fn f(&self) { let v = self.m.lock().get(1); self.after(v); }\n");
        let f = &m.fns[0];
        assert_eq!(f.locks.len(), 1);
        let (_, hi) = f.locks[0].region;
        let get = f.calls.iter().find(|c| c.target == CallTarget::Method("get".into())).unwrap();
        let after =
            f.calls.iter().find(|c| c.target == CallTarget::Method("after".into())).unwrap();
        // the temporary guard covers `.get(` but is dropped at the `;`
        assert!(get.tok < hi, "get under the temporary guard");
        assert!(after.tok > hi, "next statement outside");
    }

    #[test]
    fn drop_releases_named_guard() {
        let m = model("fn f(&self) { let g = self.m.lock(); g.push(1); drop(g); self.after(); }\n");
        let f = &m.fns[0];
        let (_, hi) = f.locks[0].region;
        let after =
            f.calls.iter().find(|c| c.target == CallTarget::Method("after".into())).unwrap();
        assert!(after.tok > hi, "drop(g) ends the region before after()");
    }

    #[test]
    fn lock_keys_owner_field_and_accessor_binding() {
        let m = model(
            "struct SimCache;\n\
             impl SimCache {\n\
                 fn insert(&self) { let g = self.shards.lock(); g.push(1); }\n\
                 fn get(&self, k: u64) { let shard = self.shard(k); let g = shard.lock(); \
                   g.push(1); }\n\
             }\n\
             fn probe(q: &Q) { let g = q.m.lock(); g.push(1); }\n",
        );
        let keys: Vec<&str> =
            m.fns.iter().flat_map(|f| f.locks.iter().map(|l| l.key.as_str())).collect();
        // owner.field; a bare-ident receiver resolves one binding back to
        // its accessor; a free fn's owner is the crate.
        assert_eq!(keys, vec!["SimCache.shards", "SimCache.shard()", "core.m"]);
    }

    #[test]
    fn lock_bound_name_recorded_for_let_guards_only() {
        let m = model(
            "fn f(&self) { let g = self.m.lock(); g.push(1); }\n\
             fn t(&self) { self.m.lock().push(1); }\n",
        );
        assert_eq!(m.fns[0].locks[0].bound.as_deref(), Some("g"));
        assert_eq!(m.fns[1].locks[0].bound, None, "temporary guard has no binding");
    }

    #[test]
    fn call_arg0_captured_for_bare_idents() {
        let m = model("fn f(&self) { self.cv.wait(guard); self.cv.notify_all(); done(a, b); }\n");
        let f = &m.fns[0];
        let by_name = |want: &str| {
            f.calls
                .iter()
                .find(|c| match &c.target {
                    CallTarget::Method(n) => n == want,
                    CallTarget::Path(p) => p.last().is_some_and(|s| s == want),
                })
                .unwrap()
        };
        assert_eq!(by_name("wait").arg0.as_deref(), Some("guard"));
        assert_eq!(by_name("notify_all").arg0, None);
        assert_eq!(by_name("done").arg0.as_deref(), Some("a"));
    }

    #[test]
    fn pub_items_recorded_and_restricted_pub_skipped() {
        let m = model(
            "pub struct A;\npub(crate) struct B;\npub enum C { X }\npub trait D {}\n\
             pub type E = u8;\npub const F: u8 = 0;\npub fn g() {}\nfn h() {}\n",
        );
        let names: Vec<&str> = m.pub_items.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["A", "C", "D", "E", "F", "g"]);
    }

    #[test]
    fn nested_mod_paths_compose() {
        let m = model("mod inner { pub fn deep() {} }\n");
        assert_eq!(m.fns[0].module, "x::inner");
        assert_eq!(m.fns[0].name, "deep");
    }

    #[test]
    fn taint_sites_hash_iteration_time_thread_rng_pointer() {
        let m = model(
            "fn f(h: HashMap<String, u32>) {\n\
                 for v in h.values() { use_it(v); }\n\
                 let t = Instant::now();\n\
                 let w = SystemTime::now();\n\
                 let id = thread::current().id();\n\
                 let r = thread_rng();\n\
                 let p = t.as_ptr();\n\
             }\n",
        );
        let whats: Vec<&str> = m.fns[0].taints.iter().map(|t| t.what).collect();
        assert_eq!(
            whats,
            vec![
                "`HashMap`/`HashSet` iteration",
                "`Instant::now()`",
                "`SystemTime::now()`",
                "`thread::current()`",
                "seed-free RNG constructor",
                "pointer address (`as_ptr`)",
            ]
        );
    }

    #[test]
    fn hash_iteration_needs_a_hash_bound_receiver() {
        let m = model(
            "fn clean(b: &BTreeMap<String, u32>) { for v in b.values() { use_it(v); } }\n\
             fn local() { let m = HashMap::new(); for k in m.keys() { use_it(k); } }\n\
             fn for_loop(s: HashSet<u32>) { for x in s { use_it(x); } }\n",
        );
        assert!(m.fns[0].taints.is_empty(), "BTreeMap iteration is ordered");
        assert_eq!(m.fns[1].taints.len(), 1, "initialiser binding tracked");
        assert_eq!(m.fns[2].taints.len(), 1, "bare for-loop over a HashSet");
    }

    #[test]
    fn mut_writes_capture_receiver_chain_and_binding() {
        let m = model(
            "fn f(&self) {\n\
                 self.sink.lock().push(1);\n\
                 let mut g = self.shard.lock();\n\
                 g.insert(1, 2);\n\
                 self.total += 1.0;\n\
                 local.push(3);\n\
             }\n",
        );
        let w = &m.fns[0].mut_writes;
        assert_eq!(w.len(), 4, "{w:?}");
        assert_eq!(w[0].op, "push");
        assert_eq!(w[0].receiver, vec!["self", "sink", "lock()"]);
        assert_eq!(w[1].op, "insert");
        assert_eq!(w[1].receiver, vec!["g"]);
        assert_eq!(w[1].via.as_deref(), Some("lock()"), "guard resolved to its binding");
        assert_eq!(w[2].op, "+=");
        assert_eq!(w[2].receiver, vec!["self", "total"]);
        assert_eq!(w[3].receiver, vec!["local"]);
        assert_eq!(w[3].via, None, "unbound local stays unresolved");
    }

    #[test]
    fn compound_assign_on_index_expression() {
        let m = model("fn f(acc: &mut [f64], k: usize) { acc[k] += 1.0; }\n");
        let w = &m.fns[0].mut_writes;
        assert_eq!(w.len(), 1, "{w:?}");
        assert_eq!(w[0].op, "+=");
        assert_eq!(w[0].receiver, vec!["acc"]);
    }

    #[test]
    fn atomic_store_recorded_but_fetch_add_exempt() {
        let m =
            model("fn f(&self) { self.seq.store(1, Relaxed); self.seq.fetch_add(1, Relaxed); }\n");
        let ops: Vec<&str> = m.fns[0].mut_writes.iter().map(|w| w.op.as_str()).collect();
        assert_eq!(ops, vec!["store"], "fetch_add is commutative, store is not");
    }

    #[test]
    fn statics_recorded_with_interior_mutability() {
        let m = model(
            "static SINK: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
             static COUNT: AtomicU64 = AtomicU64::new(0);\n\
             static NAME: &str = \"x\";\n\
             const K: u32 = 3;\n",
        );
        let view: Vec<(&str, bool)> =
            m.statics.iter().map(|s| (s.name.as_str(), s.interior_mut)).collect();
        assert_eq!(view, vec![("SINK", true), ("COUNT", true), ("NAME", false)]);
    }

    #[test]
    fn test_regions_are_invisible() {
        let m = model("fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { x.unwrap(); } }\n");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "live");
    }
}
