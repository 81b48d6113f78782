//! The docs' cross-references resolve. Every `DESIGN.md §N` (or
//! `DESIGN §N`) cited in `crates/`, `tests/`, `examples/`, `.github/`,
//! the README and the ROADMAP — and every `§N` inside DESIGN.md itself —
//! names a `## §N` section, and a quoted title beside the citation names
//! a `###` heading or a bold paragraph lead-in inside that section. So a
//! section that moves or is retitled fails here until its citations
//! follow. `CHANGES.md` and `bench/history/` are records of their time
//! and are not checked.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the tests package sits in the workspace root")
        .to_path_buf()
}

/// Collapse every run of whitespace to one space.
fn normalize(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The text of `file` as one line: each line trimmed of its comment
/// marker, so a citation or title that wraps still reads whole.
fn flatten(file: &str) -> String {
    let lines = file.lines().map(|line| {
        let line = line.trim_start();
        ["//!", "///", "//", "#"]
            .iter()
            .find_map(|marker| line.strip_prefix(marker))
            .unwrap_or(line)
    });
    normalize(&lines.collect::<Vec<_>>().join(" "))
}

/// DESIGN.md's sections: number, then the titles a citation may quote —
/// the `###` headings and the bold lead-ins of paragraphs and list items.
fn sections(design: &str) -> Vec<(u32, Vec<String>)> {
    let mut out: Vec<(u32, Vec<String>)> = Vec::new();
    for line in design.lines() {
        if let Some(rest) = line.strip_prefix("## §") {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            out.push((digits.parse().expect("section number"), Vec::new()));
            continue;
        }
        let Some((_, titles)) = out.last_mut() else {
            continue;
        };
        if let Some(heading) = line.strip_prefix("### ") {
            titles.push(normalize(heading));
            continue;
        }
        let mut item = line.trim_start();
        item = item
            .strip_prefix("* ")
            .or_else(|| item.strip_prefix("- "))
            .unwrap_or(item);
        let unnumbered = item.trim_start_matches(|c: char| c.is_ascii_digit());
        if unnumbered.len() < item.len() {
            item = unnumbered.strip_prefix(". ").unwrap_or(item);
        }
        if let Some(lead) = item.strip_prefix("**") {
            if let Some(end) = lead.find("**") {
                titles.push(normalize(&lead[..end]));
            }
        }
    }
    out
}

/// One citation: the section number and the title quoted beside it.
#[derive(Debug)]
struct Citation {
    section: u32,
    title: Option<String>,
    context: String,
}

/// The DESIGN citations in `text` (flattened). With `bare`, every `§N`
/// counts (DESIGN.md citing itself; the paper's sections are Roman);
/// otherwise a `§N` counts when `DESIGN` or `DESIGN.md` precedes it, or
/// when it continues such a citation (`§3 and §10`, `§17–18`).
fn citations(text: &str, bare: bool) -> Vec<Citation> {
    let mut out = Vec::new();
    let mut chain_end = None;
    for (at, _) in text.match_indices('§') {
        let after = &text[at + '§'.len_utf8()..];
        let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            continue;
        }
        let before = text[..at].trim_end().trim_end_matches('`');
        let continues = chain_end.is_some_and(|end: usize| {
            let gap = text[end..at].trim();
            gap.is_empty() || [",", "and", "or", "/", "–", "-"].contains(&gap)
        });
        if !(bare || before.ends_with("DESIGN") || before.ends_with("DESIGN.md") || continues) {
            chain_end = None;
            continue;
        }
        let mut rest = &after[digits.len()..];
        let mut numbers = vec![digits.parse().expect("digits")];
        // A range: `§17–18`.
        if let Some(tail) = rest.strip_prefix('–').or_else(|| rest.strip_prefix('-')) {
            let end: String = tail.chars().take_while(char::is_ascii_digit).collect();
            if !end.is_empty() {
                numbers.push(end.parse().expect("digits"));
                rest = &tail[end.len()..];
            }
        }
        chain_end = Some(text.len() - rest.len());
        let quoted = rest
            .trim_start_matches(['\'', '’', 's', ','])
            .trim_start()
            .trim_start_matches('(');
        let title = quoted
            .strip_prefix('"')
            .and_then(|q| q.find('"').map(|end| &q[..end]))
            .or_else(|| {
                quoted
                    .strip_prefix('“')
                    .and_then(|q| q.find('”').map(|end| &q[..end]))
            })
            .map(normalize);
        let context: String = text[at..].chars().take(70).collect();
        for section in numbers {
            out.push(Citation {
                section,
                title: title.clone(),
                context: context.clone(),
            });
        }
    }
    out
}

/// Every checked file under `dir`, recursively.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !["target", "golden", "corpus"].contains(&name) {
                walk(&path, out);
            }
        } else if ["rs", "md", "toml", "yml", "yaml", "sh"]
            .iter()
            .any(|ext| path.extension().is_some_and(|e| e == *ext))
        {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn design_citations_resolve() {
    let root = repo_root();
    let design = read(&root.join("DESIGN.md"));
    let sections = sections(&design);
    assert!(sections.len() >= 20, "DESIGN.md lost its `## §N` headings");

    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", ".github"] {
        walk(&root.join(dir), &mut files);
    }
    files.extend(["README.md", "ROADMAP.md"].map(|f| root.join(f)));

    let mut cited = Vec::new();
    for path in &files {
        cited.extend(
            citations(&flatten(&read(path)), false)
                .into_iter()
                .map(|c| (path, c)),
        );
    }
    let design_path = root.join("DESIGN.md");
    cited.extend(
        citations(&flatten(&design), true)
            .into_iter()
            .map(|c| (&design_path, c)),
    );
    assert!(
        cited.len() > 50,
        "the scan found only {} citations",
        cited.len()
    );

    let broken: Vec<String> = cited
        .iter()
        .filter_map(|(path, c)| {
            let file = path.strip_prefix(&root).unwrap_or(path).display();
            let Some((_, titles)) = sections.iter().find(|(n, _)| *n == c.section) else {
                return Some(format!(
                    "{file}: no `## §{}` for {:?}",
                    c.section, c.context
                ));
            };
            let title = c.title.as_ref()?;
            if titles.iter().any(|t| t.starts_with(title.as_str())) {
                return None;
            }
            Some(format!(
                "{file}: §{} has no heading or bold lead-in {title:?} (in {:?})",
                c.section, c.context
            ))
        })
        .collect();
    assert!(
        broken.is_empty(),
        "broken DESIGN citations:\n{}",
        broken.join("\n")
    );
}

/// The scanner itself: bare and prefixed forms, chains, ranges, quoted
/// titles across a line break, and a paper section left alone.
#[test]
fn citation_scanner_reads_the_forms_in_use() {
    let text = flatten(
        "/// See DESIGN.md §3 and §10, `DESIGN.md` §4, \"How a table\n\
         /// is built\", DESIGN §17–18 and paper §VI-D; §9 is not cited.",
    );
    let found: Vec<(u32, Option<String>)> = citations(&text, false)
        .into_iter()
        .map(|c| (c.section, c.title))
        .collect();
    let title = Some("How a table is built".to_owned());
    assert_eq!(
        found,
        [(3, None), (10, None), (4, title), (17, None), (18, None)]
    );
    let bare = citations(&flatten("(§8 “What was left”), §VI-D"), true);
    assert_eq!(bare.len(), 1);
    assert_eq!(bare[0].title.as_deref(), Some("What was left"));

    let sections = sections("## §1 One\n### Sub\n* **Lead.** text\n## §2 Two\n1. **Item** x\n");
    assert_eq!(sections[0], (1, vec!["Sub".to_owned(), "Lead.".to_owned()]));
    assert_eq!(sections[1], (2, vec!["Item".to_owned()]));
}
