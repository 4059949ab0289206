//! Every file README.md and DESIGN.md point at exists.
//!
//! A backticked token that contains a `/` and ends in one of the source or
//! data extensions below, optionally followed by `:line`, is a reference to a
//! file of the checkout. It must name exactly one file: either as a path from
//! the repository root, or as the path suffix (on a `/` boundary) of a single
//! file in the tree. A `:line` must lie inside that file, and a
//! `{a,b}` group stands for each of its expansions. Fenced code blocks are
//! commands, not references, and are skipped; so are tokens with whitespace.

use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose references are checked.
const DOCS: [&str; 2] = ["README.md", "DESIGN.md"];

/// What a referenced file may end in.
const EXTENSIONS: [&str; 7] = [".rs", ".md", ".json", ".jsonl", ".toml", ".yml", ".sh"];

/// Every file under `dir`, as a `/`-separated path relative to `root`,
/// skipping build output (`target/`) and the repository's own metadata.
fn walk(root: &Path, dir: &Path, files: &mut Vec<String>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|err| panic!("{}: {err}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|name| name.to_str())
            .unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != ".git" {
                walk(root, &path, files);
            }
        } else {
            let relative = path.strip_prefix(root).expect("under the root");
            let parts: Vec<&str> = relative.iter().filter_map(|part| part.to_str()).collect();
            files.push(parts.join("/"));
        }
    }
}

/// The inline code spans of a Markdown document outside its fenced blocks.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// A span as the file reference it makes, if it makes one: the paths it
/// names (more than one for a `{a,b}` group) and the line, if any.
fn reference(span: &str) -> Option<(Vec<String>, Option<usize>)> {
    if span.contains(char::is_whitespace) || !span.contains('/') {
        return None;
    }
    let (path, line) = match span.rsplit_once(':') {
        Some((path, line)) if !line.is_empty() && line.bytes().all(|b| b.is_ascii_digit()) => {
            (path, Some(line.parse().expect("a line number")))
        }
        _ => (span, None),
    };
    if !EXTENSIONS.iter().any(|ext| path.ends_with(ext)) {
        return None;
    }
    let paths = match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|choice| format!("{}{choice}{}", &path[..open], &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    };
    Some((paths, line))
}

/// The one file of the checkout `path` names, or why there is not one.
fn resolve<'a>(path: &str, files: &'a [String]) -> Result<&'a str, String> {
    let suffix = format!("/{path}");
    let hits: Vec<&String> = files
        .iter()
        .filter(|file| *file == path || file.ends_with(&suffix))
        .collect();
    if let Some(exact) = hits.iter().find(|file| **file == path) {
        return Ok(exact);
    }
    match hits.as_slice() {
        [one] => Ok(one),
        [] => Err("names no file".to_string()),
        many => Err(format!("names {} files: {many:?}", many.len())),
    }
}

#[test]
fn every_file_the_docs_reference_exists() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(&root, &root, &mut files);
    let mut checked = 0;
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("a document");
        for span in code_spans(&text) {
            let Some((paths, line)) = reference(&span) else {
                continue;
            };
            checked += 1;
            for path in paths {
                let file = match resolve(&path, &files) {
                    Ok(file) => file,
                    Err(why) => {
                        broken.push(format!("{doc}: `{span}` {why}"));
                        continue;
                    }
                };
                if let Some(line) = line {
                    let lines = fs::read_to_string(root.join(file))
                        .map_or(0, |contents| contents.lines().count());
                    if line == 0 || line > lines {
                        broken.push(format!("{doc}: `{span}`: {file} has {lines} lines"));
                    }
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} broken references:\n{}",
        broken.len(),
        broken.join("\n")
    );
    assert!(
        checked >= 20,
        "only {checked} references found; is the scan broken?"
    );
}

#[test]
fn a_reference_is_a_path_with_a_known_extension() {
    let spans = code_spans("`a/b.rs:12` and `x.rs` and `ls a/b.rs`\n```\n`c/d.rs`\n```\n`e/f.txt`");
    let refs: Vec<_> = spans.iter().filter_map(|span| reference(span)).collect();
    assert_eq!(refs, vec![(vec!["a/b.rs".to_string()], Some(12))]);
    assert_eq!(
        reference("g/{h,i}.json"),
        Some((vec!["g/h.json".to_string(), "g/i.json".to_string()], None))
    );
    let files = [
        "crates/a/src/b.rs".to_string(),
        "crates/c/src/b.rs".to_string(),
    ];
    assert_eq!(resolve("a/src/b.rs", &files), Ok("crates/a/src/b.rs"));
    assert!(resolve("src/b.rs", &files).is_err(), "two files end in it");
    assert!(
        resolve("rates/a/src/b.rs", &files).is_err(),
        "not on a boundary"
    );
}
