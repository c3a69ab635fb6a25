//! DESIGN.md cites tests and helpers by their `fn` names, so a rename or a
//! deletion must not leave it pointing at nothing. A backticked
//! `[module::]name` whose last segment is a snake_case identifier with at
//! least two underscores reads as a function (flags and short names stay
//! out); every such name must be a `fn` defined somewhere in the source
//! tree, or be one of the few [`NOT_FNS`] the document names on purpose.
//!
//! DESIGN.md and the doc comments under `crates/` also point into the
//! document by section: `§N *Title*`. Every such reference must resolve to
//! a `###` heading or a bold paragraph lead of section `N` that starts with
//! `Title`, so a retitled or deleted passage cannot leave one dangling.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Where the cited functions may live, relative to the repository root.
const SOURCE_DIRS: [&str; 5] = ["crates", "tests", "examples", "perf/src", "vendor"];

/// Names DESIGN.md cites that read as functions but are not `fn`s of the
/// tree.
const NOT_FNS: [&str; 5] = [
    // std's positioned file I/O, which the shm ring calls.
    "read_exact_at",
    "write_all_at",
    // Fields: an obs counter and an `FtReport` entry.
    "recv_wait_ns",
    "resumed_at_step",
    // A benchmark workload.
    "lm_ft_tcp",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            if path.file_name() != Some("target".as_ref()) {
                rust_files(&path, out);
            }
        } else if path.extension() == Some("rs".as_ref()) {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every name that follows `fn ` in `src`.
fn defined_fns(src: &str) -> impl Iterator<Item = &str> {
    src.match_indices("fn ").filter_map(move |(i, _)| {
        let before = src[..i].chars().next_back();
        if before.is_some_and(is_ident_char) {
            return None;
        }
        let rest = &src[i + 3..];
        let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    })
}

/// The last segment of every backticked `[module::]name` in `doc` that
/// reads as a function name.
fn cited_fns(doc: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for line in doc.lines() {
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let code = &rest[open + 1..];
            let end = code
                .find(|c: char| !is_ident_char(c) && c != ':')
                .unwrap_or(code.len());
            if end == 0 || !code[end..].starts_with('`') {
                rest = code;
                continue;
            }
            let path = &code[..end];
            rest = &code[end + 1..];
            let last = path.rsplit("::").next().unwrap_or(path);
            let snake = last.starts_with(|c: char| c.is_ascii_lowercase())
                && last
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if snake && last.matches('_').count() >= 2 {
                names.push(last);
            }
        }
    }
    names
}

/// Per `## N.` section of a design document: `(N, lead)` for each of its
/// `###` headings and bold paragraph leads, in order.
fn section_leads(doc: &str) -> Vec<(u32, &str)> {
    let mut section = 0;
    let mut leads = Vec::new();
    for line in doc.lines() {
        if let Some(rest) = line.strip_prefix("## ") {
            section = rest
                .split('.')
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
        } else if let Some(heading) = line.strip_prefix("### ") {
            leads.push((section, heading));
        } else if let Some(bold) = line.strip_prefix("**") {
            leads.push((section, bold.split("**").next().unwrap_or(bold)));
        }
    }
    leads
}

/// `(N, title)` of every `§N *Title*` in `text`, reading a line break and
/// the comment markers that open the next line as one space.
fn section_refs(text: &str) -> Vec<(u32, String)> {
    let lines = text
        .lines()
        .map(|l| l.trim_start().trim_start_matches(['/', '!']));
    let flat = lines.collect::<Vec<_>>().join(" ");
    let flat = flat.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut refs = Vec::new();
    for (at, _) in flat.match_indices('§') {
        let rest = &flat[at + '§'.len_utf8()..];
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let Ok(section) = rest[..digits].parse() else {
            continue;
        };
        let Some(title) = rest[digits..].strip_prefix(" *") else {
            continue;
        };
        if let Some(end) = title.find('*') {
            refs.push((section, title[..end].to_string()));
        }
    }
    refs
}

#[test]
fn every_section_reference_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the test crate sits in the repository root");
    let doc = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let leads = section_leads(&doc);
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut texts = vec![("DESIGN.md".to_string(), doc.clone())];
    for f in files {
        let text = fs::read_to_string(&f).expect("a readable source file");
        texts.push((f.display().to_string(), text));
    }
    let refs: Vec<(&str, (u32, String))> = texts
        .iter()
        .flat_map(|(name, text)| section_refs(text).into_iter().map(move |r| (&name[..], r)))
        .collect();
    assert!(!refs.is_empty(), "nothing cites DESIGN.md by section");
    let resolves = |(section, title): &(u32, String)| {
        let lead = |&(s, lead): &(u32, &str)| s == *section && lead.starts_with(title.as_str());
        leads.iter().any(lead)
    };
    let dangling: Vec<String> = refs
        .iter()
        .filter(|(_, r)| !resolves(r))
        .map(|(name, (section, title))| format!("{name}: §{section} *{title}*"))
        .collect();
    assert!(
        dangling.is_empty(),
        "section references no DESIGN.md heading or bold lead starts with: {dangling:?}"
    );
}

#[test]
fn every_function_design_md_cites_is_defined() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the test crate sits in the repository root");
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    let sources: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).expect("a readable source file"))
        .collect();
    let defined: HashSet<&str> = sources.iter().flat_map(|s| defined_fns(s)).collect();

    let doc = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let cited = cited_fns(&doc);
    assert!(!cited.is_empty(), "DESIGN.md cites no function by name");
    let missing: Vec<&str> = cited
        .into_iter()
        .filter(|name| !defined.contains(name) && !NOT_FNS.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md cites functions no source file defines: {missing:?}"
    );
}

#[test]
fn the_scanners_read_what_they_claim() {
    let src = "pub fn a_b_c_d(x: u8) {}\nfn gen<T>() {}\nlet fnord = 1; // defn x";
    let fns: Vec<&str> = defined_fns(src).collect();
    assert_eq!(fns, ["a_b_c_d", "gen"]);
    let doc = "`mod::one_two_three_four` and `two_under_scores`, `A_B_C_D`,\n\
               `one_under`, `not a_name_at_all_x` ```rust `x::y_z_w_v`";
    assert_eq!(
        cited_fns(doc),
        ["one_two_three_four", "two_under_scores", "y_z_w_v"]
    );
    let design = "# T\n## 5. Pipe\n### Task graph\n**One exchange path.** Every\n\
                  ## 12. Wire\n**Records** x\n";
    assert_eq!(
        section_leads(design),
        [
            (5, "Task graph"),
            (5, "One exchange path."),
            (12, "Records")
        ]
    );
    let text = "see §5 *Task\n    /// graph*, §12 *Records on* and §§3–5,\n\
                //! the paper's §7 caution, §9*x*";
    let title = |t: &str| t.to_string();
    assert_eq!(
        section_refs(text),
        [(5, title("Task graph")), (12, title("Records on"))]
    );
}
