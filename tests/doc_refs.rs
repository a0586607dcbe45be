//! The docs name only things that exist. In the user-facing docs, every
//! backticked path resolves to a file, every `file.rs:N` (or
//! `file.rs:N–M`) lies inside its file, and every `DESIGN §N.M` names a
//! DESIGN.md heading; so does every `DESIGN §N.M` cited from Rust
//! sources and ROADMAP.md. CHANGES.md and `docs/results/` are history
//! and are not scanned, but the required prose and each CHANGES entry
//! are held to a byte budget.
//!
//! A path resolves repo-relative, crate-short (`core/x.rs` is
//! `crates/core/src/x.rs`) or by suffix: the one file whose path ends in
//! it, or else the one such file outside a `tests/` directory.

use std::collections::HashSet;
use std::path::Path;

const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "PAPER_MAP.md",
    "EXPERIMENTS.md",
    "vendor/README.md",
    ".claude/skills/verify/SKILL.md",
];

const EXTENSIONS: &[&str] = &["rs", "json", "rlp", "toml", "sh", "yml"];

/// Every file under `dir`, as a `/`-separated path relative to `root`
/// (build output and `.git` skipped).
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if !["target", ".git", ".bench_build"].contains(&&*name) {
                walk(root, &path, out);
            }
        } else {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// `a/{b,c}.rs` → `a/b.rs`, `a/c.rs` (nested and repeated braces too).
fn expand(s: &str) -> Vec<String> {
    let Some(open) = s.find('{') else {
        return vec![s.to_string()];
    };
    let close = open + s[open..].find('}').expect("unbalanced brace");
    s[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{alt}{}", &s[..open], &s[close + 1..])))
        .collect()
}

struct Repo {
    root: &'static Path,
    files: Vec<String>,
}

impl Repo {
    fn resolve(&self, name: &str) -> Option<String> {
        if self.root.join(name).is_file() {
            return Some(name.to_string());
        }
        if let Some((krate, rest)) = name.split_once('/') {
            let short = format!("crates/{krate}/src/{rest}");
            if self.root.join(&short).is_file() {
                return Some(short);
            }
        }
        let suffix = format!("/{name}");
        let hits: Vec<&String> = self.files.iter().filter(|f| f.ends_with(&suffix)).collect();
        let unique = |hits: Vec<&String>| (hits.len() == 1).then(|| hits[0].clone());
        unique(hits.clone()).or_else(|| {
            unique(
                hits.into_iter()
                    .filter(|f| !f.split('/').any(|c| c == "tests"))
                    .collect(),
            )
        })
    }

    fn line_count(&self, file: &str) -> usize {
        std::fs::read_to_string(self.root.join(file))
            .unwrap()
            .lines()
            .count()
    }
}

fn path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "_./{},-".contains(c)
}

/// A backticked span that is exactly a path with one of [`EXTENSIONS`].
fn is_path(span: &str) -> bool {
    span.chars().all(path_char)
        && span.rsplit_once('.').is_some_and(|(stem, ext)| {
            !stem.is_empty() && !stem.ends_with('/') && EXTENSIONS.contains(&ext)
        })
}

/// The digits at the start of `s`, parsed, and the rest.
fn number(s: &str) -> Option<(usize, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Every `(file, first, last)` of a `file.rs:N` or `file.rs:N–M` in
/// `line`.
fn line_refs(line: &str) -> Vec<(&str, usize, usize)> {
    let mut refs = Vec::new();
    for (at, _) in line.match_indices(".rs:") {
        let start = at
            - line[..at]
                .chars()
                .rev()
                .take_while(|&c| path_char(c))
                .map(char::len_utf8)
                .sum::<usize>();
        let Some((first, rest)) = number(&line[at + 4..]) else {
            continue;
        };
        let last = ["–", "-"]
            .iter()
            .find_map(|dash| number(rest.strip_prefix(dash)?))
            .map_or(first, |(last, _)| last);
        if start < at {
            refs.push((&line[start..at + 3], first, last));
        }
    }
    refs
}

/// The section numbers of DESIGN.md's headings (`## 8.`, `### 8.3`).
fn design_sections(root: &Path) -> HashSet<String> {
    std::fs::read_to_string(root.join("DESIGN.md"))
        .unwrap()
        .lines()
        .filter(|l| l.starts_with('#'))
        .filter_map(|l| {
            let n = l.trim_start_matches('#').trim_start().split(' ').next()?;
            let n = n.trim_end_matches('.');
            n.starts_with(|c: char| c.is_ascii_digit())
                .then(|| n.to_string())
        })
        .collect()
}

/// Every `N` or `N.M` following `DESIGN §` or `DESIGN.md §` in `line`
/// (a `§` with no number after it is a placeholder, not a reference).
fn design_refs(line: &str) -> Vec<&str> {
    ["DESIGN §", "DESIGN.md §"]
        .iter()
        .flat_map(|tag| line.match_indices(tag).map(move |(at, _)| at + tag.len()))
        .map(|from| {
            let s = &line[from..];
            let digit = |s: &str| s.starts_with(|c: char| c.is_ascii_digit());
            let end = s
                .char_indices()
                .find(|&(i, c)| !(c.is_ascii_digit() || c == '.' && digit(&s[i + 1..])))
                .map_or(s.len(), |(i, _)| i);
            &s[..end]
        })
        .filter(|section| !section.is_empty())
        .collect()
}

fn stale_references(repo: &Repo) -> Vec<String> {
    let sections = design_sections(repo.root);
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo.root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            let at = format!("{doc}:{}", n + 1);
            if !line.trim_start().starts_with("```") {
                for span in line.split('`').skip(1).step_by(2).filter(|s| is_path(s)) {
                    for path in expand(span) {
                        if repo.resolve(&path).is_none() {
                            stale.push(format!("{at}: `{path}` names no file"));
                        }
                    }
                }
            }
            for (name, first, last) in line_refs(line) {
                for path in expand(name) {
                    match repo.resolve(&path) {
                        None => stale.push(format!("{at}: `{path}:{first}` names no file")),
                        Some(file) => {
                            let len = repo.line_count(&file);
                            if first.max(last) > len || first == 0 {
                                let lines = if last == first {
                                    first.to_string()
                                } else {
                                    format!("{first}–{last}")
                                };
                                stale.push(format!(
                                    "{at}: `{path}:{lines}` is outside {file} ({len} lines)"
                                ));
                            }
                        }
                    }
                }
            }
            for section in design_refs(line) {
                if !sections.contains(section) {
                    stale.push(format!("{at}: DESIGN §{section} is no heading"));
                }
            }
        }
    }
    stale
}

#[test]
fn every_path_line_and_section_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(root, root, &mut files);
    let stale = stale_references(&Repo { root, files });
    assert!(
        stale.is_empty(),
        "{} stale doc reference(s):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

/// Where DESIGN is cited beyond [`DOCS`]: Rust sources and ROADMAP.md.
/// This file's own scanner fixtures are no citations.
fn design_citers(files: &[String]) -> Vec<&String> {
    let rust_roots = ["src/", "tests/", "examples/"];
    files
        .iter()
        .filter(|f| {
            let in_crate = f.starts_with("crates/")
                && f.split('/')
                    .nth(2)
                    .is_some_and(|d| d == "src" || d == "tests");
            f.ends_with(".rs")
                && (in_crate || rust_roots.iter().any(|r| f.starts_with(r)))
                && *f != "tests/doc_refs.rs"
        })
        .chain(files.iter().filter(|f| *f == "ROADMAP.md"))
        .collect()
}

#[test]
fn every_design_section_the_code_and_the_roadmap_cite_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(root, root, &mut files);
    let sections = design_sections(root);
    let mut stale = Vec::new();
    for file in design_citers(&files) {
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for section in design_refs(line) {
                if !sections.contains(section) {
                    stale.push(format!("{file}:{}: DESIGN §{section} is no heading", n + 1));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "{} stale DESIGN citation(s):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn the_scanner_reads_what_the_docs_write() {
    assert_eq!(
        expand("tests/{a,b}_models.rs"),
        ["tests/a_models.rs", "tests/b_models.rs"]
    );
    assert_eq!(expand("{x,y}/{p,q}.rs").len(), 4);
    assert!(is_path("core/view.rs") && is_path("BENCH_{fault,static}.json"));
    assert!(!is_path("mul.rsub") && !is_path("cargo test") && !is_path("BENCH_*.json"));
    assert_eq!(
        line_refs("see (`core/view.rs:86–103`) and driver.rs:259, not mul.rsub:3"),
        [("core/view.rs", 86, 103), ("driver.rs", 259, 259)]
    );
    assert_eq!(
        design_refs("DESIGN §8.3. and DESIGN.md §11, §4, DESIGN §N.M"),
        ["8.3", "11"]
    );
}

/// What a reader must get through: CHANGES, DESIGN, README and
/// PAPER_MAP together.
const REQUIRED_PROSE: &[&str] = &["CHANGES.md", "DESIGN.md", "README.md", "PAPER_MAP.md"];

/// The byte budget of [`REQUIRED_PROSE`]: its size when the budget was
/// last set, rounded up to the next KiB, so that growing the prose is a
/// visible decision.
const REQUIRED_PROSE_BUDGET: u64 = 164 * 1024;

/// The most bytes one CHANGES entry may take: the claim, the verdict
/// with its numbers, what the change did to tests, checks and CI, and
/// what it left undone. The rest is in `docs/results/` and git history.
const CHANGES_ENTRY_BUDGET: usize = 1280;

/// Every CHANGES entry as `(first line, bytes)`: a line that opens with
/// `- PR N:` or `- **PR N`, with the indented or blank lines under it.
fn changes_entries(text: &str) -> Vec<(&str, usize)> {
    let mut entries: Vec<(&str, usize)> = Vec::new();
    let mut open = false;
    for line in text.split_inclusive('\n') {
        if line.starts_with("- PR ") || line.starts_with("- **PR ") {
            entries.push((line.trim_end(), 0));
            open = true;
        } else if !(line.trim().is_empty() || line.starts_with([' ', '\t'])) {
            open = false;
        }
        if open {
            entries.last_mut().unwrap().1 += line.len();
        }
    }
    entries
}

#[test]
fn every_changes_entry_stays_inside_its_byte_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("CHANGES.md")).unwrap();
    let entries = changes_entries(&text);
    assert!(!entries.is_empty(), "CHANGES.md has no `- PR N` entry");
    let over: Vec<String> = entries
        .iter()
        .filter(|(_, bytes)| *bytes > CHANGES_ENTRY_BUDGET)
        .map(|(head, bytes)| {
            format!(
                "{bytes} bytes: {}",
                head.chars().take(60).collect::<String>()
            )
        })
        .collect();
    assert!(
        over.is_empty(),
        "{} CHANGES entr(y/ies) over {CHANGES_ENTRY_BUDGET} bytes:\n{}",
        over.len(),
        over.join("\n")
    );
}

#[test]
fn the_required_prose_stays_inside_its_byte_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sizes: Vec<(&str, u64)> = REQUIRED_PROSE
        .iter()
        .map(|f| (*f, std::fs::metadata(root.join(f)).unwrap().len()))
        .collect();
    let total: u64 = sizes.iter().map(|(_, len)| len).sum();
    if total <= REQUIRED_PROSE_BUDGET {
        return;
    }
    let text = std::fs::read_to_string(root.join("CHANGES.md")).unwrap();
    let mut entries = changes_entries(&text);
    entries.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
    let files: Vec<String> = sizes
        .iter()
        .map(|(f, len)| format!("  {f}: {len}"))
        .collect();
    let largest: Vec<String> = entries
        .iter()
        .take(3)
        .map(|(head, bytes)| format!("  {bytes}: {}", head.chars().take(60).collect::<String>()))
        .collect();
    panic!(
        "the required prose is {total} bytes, over the budget of {REQUIRED_PROSE_BUDGET}: \
         cut it, or raise the budget in the same change\n{}\nlargest CHANGES entries:\n{}",
        files.join("\n"),
        largest.join("\n")
    );
}
