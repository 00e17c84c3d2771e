//! Caller census: every `pub fn`, `pub const` and `pub static` under
//! `crates/*/src` (methods included) must be named by some file other
//! than the one that defines it, or sit on [`ALLOW`] with a reason.
//!
//! The census reads every `.rs` file under `crates/`, `examples/` and
//! `tests/` once and indexes each identifier by the files that name it.
//! Comments, string and char literals, `pub use` re-exports and the name
//! in a definition (`fn f`, `const C`, `static S`) are not mentions. A
//! mention inside a `#[cfg(test)]` item is a test caller; only other files
//! count, so an item's own unit tests never keep it alive. The benchmark
//! package (`crates/bench/src/bin/perf`) is read as a caller only.
//!
//! The match is by word, not by resolved path: a method `len` counts as
//! called wherever another file names any `len`. So the census can only
//! err towards "has a caller": an item it flags has none outside its file,
//! an item it passes may still be dead. Types are out of scope; rustc's
//! private-interface rules decide which types a `pub` signature keeps.
//!
//! `cargo test -p validate --test census -- --nocapture` prints the
//! census: item counts by caller kind, and the items only tests or
//! examples reach. Their number may not exceed [`TEST_ONLY_PIN`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

/// Items that stay `pub` with no caller outside their file: (defining
/// file, name, reason).
const ALLOW: &[(&str, &str, &str)] = &[];

/// The most `pub` items that only tests or examples may reach. The pin
/// only falls: a change that brings the count below it lowers it to the
/// count the census prints.
const TEST_ONLY_PIN: usize = 68;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Production,
    Benchmark,
    Test,
    Example,
}

/// The kind of a file's code outside its `#[cfg(test)]` items, and whether
/// its `pub` items are censused.
fn classify(path: &str) -> (Kind, bool) {
    if path.starts_with("crates/bench/src/bin/perf/") {
        (Kind::Benchmark, false)
    } else if path.starts_with("tests/") || path.contains("/tests/") {
        (Kind::Test, false)
    } else if path.starts_with("examples/") || path.contains("/examples/") {
        (Kind::Example, false)
    } else {
        let censused = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
        (Kind::Production, censused)
    }
}

/// A literal (string, char or number) as a token: `"` is never a word or
/// a punctuation token.
const LIT: &str = "\"";

/// Words, punctuation and literals of one file, each with its line;
/// comments dropped.
fn lex(src: &str) -> Vec<(String, usize)> {
    let s: Vec<char> = src.chars().collect();
    let at = |i: usize| s.get(i).copied().unwrap_or('\0');
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let (mut toks, mut i, mut line) = (Vec::new(), 0, 1);
    while i < s.len() {
        let (c, first_line) = (s[i], line);
        if c == '/' && at(i + 1) == '/' {
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < s.len() {
                match (s[i], at(i + 1)) {
                    ('/', '*') => depth += 1,
                    ('*', '/') => depth -= 1,
                    (ch, _) => {
                        line += usize::from(ch == '\n');
                        i += 1;
                        continue;
                    }
                }
                i += 2;
                if depth == 0 {
                    break;
                }
            }
        } else if c == '"' {
            i += 1;
            while i < s.len() && s[i] != '"' {
                i += usize::from(s[i] == '\\');
                line += usize::from(at(i) == '\n');
                i += 1;
            }
            i += 1;
            toks.push((LIT.to_string(), first_line));
        } else if c == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A char literal: 'x', '\'', '\u{..}'.
            i += if at(i + 1) == '\\' { 3 } else { 2 };
            while i < s.len() && s[i] != '\'' {
                i += 1;
            }
            i += 1;
            toks.push((LIT.to_string(), first_line));
        } else if c == '\'' {
            // A lifetime or label: its name is no mention.
            i += 1;
            while is_word(at(i)) {
                i += 1;
            }
        } else if is_word(c) {
            let start = i;
            while is_word(at(i)) {
                i += 1;
            }
            let word: String = s[start..i].iter().collect();
            let hashes = s[i..].iter().take_while(|&&h| h == '#').count();
            if (word == "r" || word == "br") && at(i + hashes) == '"' {
                // A raw string ends at a quote followed by as many hashes.
                let end = vec!['#'; hashes];
                i += hashes + 1;
                while i < s.len() && !(s[i] == '"' && s[i + 1..].starts_with(&end)) {
                    line += usize::from(s[i] == '\n');
                    i += 1;
                }
                i += hashes + 1;
                toks.push((LIT.to_string(), first_line));
            } else if c.is_ascii_digit() {
                toks.push((LIT.to_string(), first_line));
            } else {
                toks.push((word, first_line));
            }
        } else {
            line += usize::from(c == '\n');
            if !c.is_whitespace() {
                toks.push((c.to_string(), line));
            }
            i += 1;
        }
    }
    toks
}

/// The last token of the item starting at `from`: its first `;` outside
/// braces, or the `}` closing its first block.
fn item_end(toks: &[(String, usize)], from: usize) -> usize {
    let mut depth = 0;
    for (j, (w, _)) in toks.iter().enumerate().skip(from) {
        match w.as_str() {
            ";" if depth == 0 => return j,
            "{" => depth += 1,
            "}" if depth == 1 => return j,
            "}" => depth -= 1,
            _ => {}
        }
    }
    toks.len() - 1
}

/// A censused item: where it is defined.
#[derive(Debug)]
struct Item {
    file: String,
    line: usize,
    name: String,
}

const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];

/// One file's censused items, and its mentions with their kinds.
fn scan(path: &str, src: &str) -> (Vec<Item>, Vec<(String, Kind)>) {
    let (kind, censused) = classify(path);
    let toks = lex(src);
    let t = |i: usize| toks.get(i).map_or("", |(w, _)| w.as_str());
    let name_at = |j: usize| if t(j + 1) == "mut" { j + 2 } else { j + 1 };
    let (mut in_test, mut mention) = (vec![false; toks.len()], vec![true; toks.len()]);
    let mut items = Vec::new();
    for i in 0..toks.len() {
        if (i..i + 7).map(t).eq(CFG_TEST) {
            in_test[i..=item_end(&toks, i + 7)].fill(true);
        }
        let name = name_at(i);
        if matches!(t(i), "fn" | "const" | "static") && !matches!(t(name), "fn" | "unsafe" | "") {
            mention[name] = false;
        }
        if t(i) != "pub" {
            continue;
        }
        let restricted = t(i + 1) == "(";
        let mut j = i + 1;
        if restricted {
            j += toks[j..].iter().position(|(w, _)| w == ")").unwrap() + 1;
        }
        if t(j) == "use" {
            mention[i..=item_end(&toks, j)].fill(false);
        }
        if restricted || !censused || in_test[i] {
            continue;
        }
        while matches!(t(j), "unsafe" | "async" | "extern" | LIT)
            || t(j) == "const" && t(j + 1) == "fn"
        {
            j += 1;
        }
        if let ("fn" | "const" | "static", Some((name, line))) = (t(j), toks.get(name_at(j))) {
            let (file, line, name) = (path.to_string(), *line, name.clone());
            items.push(Item { file, line, name });
        }
    }
    let is_word = |w: &str| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_');
    let mentions = toks
        .iter()
        .enumerate()
        .filter(|&(i, (w, _))| mention[i] && is_word(w));
    let mentions =
        mentions.map(|(i, (w, _))| (w.clone(), if in_test[i] { Kind::Test } else { kind }));
    (items, mentions.collect())
}

struct Census {
    items: Vec<Item>,
    /// Identifier -> the (file, kind) pairs that name it.
    index: HashMap<String, BTreeSet<(String, Kind)>>,
}

impl Census {
    /// `sources` holds (path relative to the repository root, text).
    fn build(sources: &[(String, String)]) -> Census {
        let (mut items, mut index) = (Vec::new(), HashMap::<_, BTreeSet<_>>::new());
        for (path, src) in sources {
            let (found, mentions) = scan(path, src);
            items.extend(found);
            for (word, kind) in mentions {
                index.entry(word).or_default().insert((path.clone(), kind));
            }
        }
        Census { items, index }
    }

    /// The kinds of the callers of `item` outside its own file.
    fn callers(&self, item: &Item) -> Vec<Kind> {
        let named_by = self.index.get(&item.name).into_iter().flatten();
        let outside = named_by.filter(|(file, _)| *file != item.file);
        let kinds: BTreeSet<_> = outside.map(|&(_, kind)| kind).collect();
        kinds.into_iter().collect()
    }
}

fn read_tree(root: &Path, dir: &str, out: &mut Vec<(String, String)>) {
    let entries = std::fs::read_dir(root.join(dir)).unwrap();
    let mut names: Vec<_> = entries
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    for name in names {
        let rel = format!("{dir}/{name}");
        let path = root.join(&rel);
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            read_tree(root, &rel, out);
        } else if name.ends_with(".rs") {
            out.push((rel, std::fs::read_to_string(&path).unwrap()));
        }
    }
}

#[test]
fn every_pub_item_has_a_caller_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = Vec::new();
    for dir in ["crates", "examples", "tests"] {
        read_tree(&root, dir, &mut sources);
    }
    let census = Census::build(&sources);
    let n = census.items.len();
    assert!(n > 100, "the census found only {n} items");

    let mut by_kinds: BTreeMap<Vec<Kind>, Vec<&Item>> = BTreeMap::new();
    for item in &census.items {
        by_kinds.entry(census.callers(item)).or_default().push(item);
    }
    let at = |i: &Item| format!("{}:{} {}", i.file, i.line, i.name);
    println!("caller census: {n} pub fn/const/static items under crates/*/src");
    for (kinds, items) in &by_kinds {
        println!(
            "  callers outside the file: {:<50} {}",
            format!("{kinds:?}"),
            items.len()
        );
    }
    let tests_only = |k: &[Kind]| k.iter().all(|k| matches!(k, Kind::Test | Kind::Example));
    let mut test_only = 0;
    for (kinds, items) in by_kinds
        .iter()
        .filter(|(k, _)| !k.is_empty() && tests_only(k))
    {
        let list: Vec<_> = items.iter().map(|&i| at(i)).collect();
        println!("reached only by {kinds:?}:\n  {}", list.join("\n  "));
        test_only += items.len();
    }
    println!("reached only by tests or examples: {test_only} (pin {TEST_ONLY_PIN})");
    assert!(
        test_only <= TEST_ONLY_PIN,
        "{test_only} pub items are reached only by tests or examples, more than the pin of \
         {TEST_ONLY_PIN}: give the new one a production caller, make it #[cfg(test)] or move \
         it into its test. The pin only falls; when the count drops below it, lower \
         TEST_ONLY_PIN to the new count"
    );
    let uncalled = by_kinds.remove(&vec![]).unwrap_or_default();
    let allows = |e: &(&str, &str, &str), i: &Item| e.0 == i.file && e.1 == i.name;
    let stale: Vec<_> = ALLOW
        .iter()
        .filter(|e| !uncalled.iter().any(|i| allows(e, i)))
        .collect();
    assert!(
        stale.is_empty(),
        "allow-list entries naming no uncalled item: {stale:?}"
    );
    assert!(
        ALLOW.len() <= 15,
        "{} allow-list entries, at most 15",
        ALLOW.len()
    );
    let failing = uncalled
        .iter()
        .filter(|i| !ALLOW.iter().any(|e| allows(e, i)));
    let failing: Vec<_> = failing.map(|&i| at(i)).collect();
    assert!(
        failing.is_empty(),
        "pub items with no caller outside their file: delete them, make them private \
         or pub(crate), or allow-list them with a reason:\n  {}",
        failing.join("\n  ")
    );
}

/// A small tree: `machine/src/lib.rs` defines `NodeSpec::piz_daint` and
/// `LIMIT`, and its own tests call the first.
fn fixture(others: &[(&str, &str)]) -> Census {
    let defining = "pub struct NodeSpec;\n\
         impl NodeSpec {\n    pub fn piz_daint() -> Self { NodeSpec }\n}\n\
         pub const LIMIT: usize = 4;\n\
         #[cfg(test)]\nmod tests {\n    fn t() { let _ = super::NodeSpec::piz_daint(); }\n}\n";
    let mut sources = vec![("crates/machine/src/lib.rs".into(), defining.into())];
    sources.extend(others.iter().map(|&(p, s)| (p.into(), s.into())));
    Census::build(&sources)
}

fn callers_of(census: &Census, name: &str) -> Vec<Kind> {
    census.callers(census.items.iter().find(|i| i.name == name).unwrap())
}

#[test]
fn items_are_found_with_their_lines_and_definitions_are_no_calls() {
    let census = fixture(&[(
        "crates/comm/src/plan.rs",
        "const S: &str = \"a\\\n b\";\nconst R: &str = r#\"\n\"#;\npub(crate) fn piz_daint() {}\n\
         const LIMIT: usize = 1;\npub const fn twice(x: usize) -> usize { 2 * x }\n\
         pub static mut HITS: u32 = 0;\nfn g<'a>(x: &'a str) -> &'a str { x }\n",
    )]);
    let found: Vec<_> = census
        .items
        .iter()
        .map(|i| (i.name.as_str(), i.line))
        .collect();
    assert_eq!(
        found,
        [("piz_daint", 3), ("LIMIT", 5), ("twice", 7), ("HITS", 8)]
    );
    assert!(callers_of(&census, "piz_daint").is_empty());
    assert!(callers_of(&census, "LIMIT").is_empty());
}

#[test]
fn a_pub_use_reexport_is_not_a_caller() {
    let census = fixture(&[(
        "crates/bench/src/lib.rs",
        "pub use machine::{\n    NodeSpec::piz_daint,\n    LIMIT,\n};\npub(crate) use machine::LIMIT as L;\n",
    )]);
    assert!(callers_of(&census, "piz_daint").is_empty());
    assert!(callers_of(&census, "LIMIT").is_empty());
}

#[test]
fn a_comment_mention_is_not_a_caller() {
    let census = fixture(&[(
        "crates/bench/src/lib.rs",
        "// piz_daint\n/// [`LIMIT`]\n/* outer /* piz_daint */ LIMIT */\nfn f() {}\n",
    )]);
    assert!(callers_of(&census, "piz_daint").is_empty());
    assert!(callers_of(&census, "LIMIT").is_empty());
}

#[test]
fn a_string_literal_mention_is_not_a_caller() {
    let census = fixture(&[(
        "crates/bench/src/bin/reproduce.rs",
        "fn main() {\n    println!(\"NodeSpec::piz_daint \\\" LIMIT\");\n    \
         let _ = r#\"piz_daint \" LIMIT\"#;\n    let _ = ('\"', b'\\'', \"LIMIT\");\n}\n",
    )]);
    assert!(callers_of(&census, "piz_daint").is_empty());
    assert!(callers_of(&census, "LIMIT").is_empty());
}

#[test]
fn an_own_file_cfg_test_use_is_not_a_caller() {
    assert!(callers_of(&fixture(&[]), "piz_daint").is_empty());
}

#[test]
fn callers_are_split_by_kind_and_the_benchmark_is_a_caller_only() {
    let census = fixture(&[
        (
            "tests/a.rs",
            "#[test]\nfn t() { machine::NodeSpec::piz_daint(); }\n",
        ),
        (
            "crates/comm/src/a.rs",
            "fn f() -> usize { machine::LIMIT }\n",
        ),
        (
            "crates/fv3/src/a.rs",
            "#[cfg(test)]\nmod tests { fn t() -> usize { m::LIMIT } }\n",
        ),
        (
            "examples/a.rs",
            "fn main() { machine::NodeSpec::piz_daint(); }\n",
        ),
        (
            "crates/bench/src/bin/perf/src/a.rs",
            "pub fn probe() -> usize { m::LIMIT }\n",
        ),
    ]);
    assert_eq!(
        callers_of(&census, "piz_daint"),
        [Kind::Test, Kind::Example]
    );
    let limit = [Kind::Production, Kind::Benchmark, Kind::Test];
    assert_eq!(callers_of(&census, "LIMIT"), limit);
    assert!(census.items.iter().all(|i| i.name != "probe"));
}
