//! Every file and every `Type::item` README.md, DESIGN.md, EXPERIMENTS.md
//! and the verify skill (`.claude/skills/verify/SKILL.md`) point at exists.
//!
//! A backticked token that contains a `/` and ends in one of the source or
//! data extensions below, optionally followed by `:line`, is a reference to a
//! file of the checkout. It must name exactly one file: either as a path from
//! the repository root, or as the path suffix (on a `/` boundary) of a single
//! file in the tree. A `:line` must lie inside that file, and a
//! `{a,b}` group stands for each of its expansions. Fenced code blocks are
//! commands, not references, and are skipped; so are tokens with whitespace.
//!
//! A backticked `Type::item` token (a capitalised type, then a function,
//! constant, field or variant, optionally called with arguments) is a
//! reference to code: some crate of the checkout must declare both the type
//! and the item.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose references are checked.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

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

/// A span as the `(type, item)` pair it names, if it names one: `T::f`,
/// `T::f()` and `T::f(args)` all name `f` of `T`; an expression that goes on
/// after the arguments names nothing.
fn type_reference(span: &str) -> Option<(&str, &str)> {
    let (path, args) = span.split_once('(').unwrap_or((span, ")"));
    if args.find(')') != Some(args.len() - 1) {
        return None;
    }
    let (ty, item) = path.split_once("::")?;
    let ident =
        |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    let capitalised = ty.starts_with(|c: char| c.is_ascii_uppercase());
    (capitalised && ident(ty) && ident(item)).then_some((ty, item))
}

/// The names a crate declares: its types, and every function, constant,
/// static, associated type, field and enum variant.
#[derive(Default)]
struct Declarations {
    types: HashSet<String>,
    items: HashSet<String>,
}

impl Declarations {
    /// Reads the declarations off one source line.
    fn scan(&mut self, line: &str) {
        let mut rest = line.trim_start();
        if let Some(after) = rest.strip_prefix("pub") {
            rest = match after.strip_prefix('(') {
                Some(scoped) => scoped.split_once(')').map_or("", |(_, tail)| tail),
                None => after,
            }
            .trim_start();
        }
        let leading = |s: &str| -> String {
            s.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect()
        };
        let words: Vec<&str> = rest.split_whitespace().collect();
        for pair in words.windows(2) {
            let name = leading(pair[1]);
            match pair[0] {
                // `const fn f`: the name comes with the next keyword.
                _ if matches!(name.as_str(), "fn" | "unsafe" | "async" | "extern") => {}
                "struct" | "enum" | "trait" | "union" => drop(self.types.insert(name)),
                "type" => {
                    self.types.insert(name.clone());
                    self.items.insert(name);
                }
                "fn" | "const" | "static" => drop(self.items.insert(name)),
                _ => {}
            }
        }
        // A field (`name: T,`) or a variant (`Name,`, `Name(T),`, `Name {`).
        let name = leading(rest);
        let tail = &rest[name.len()..];
        let field = tail.starts_with(':') && !tail.starts_with("::");
        let variant = [",", "(", " {", " ="].iter().any(|p| tail.starts_with(p))
            && [',', '{', '(']
                .iter()
                .any(|&c| rest.trim_end().ends_with(c));
        if !name.is_empty() && (field || variant) {
            self.items.insert(name);
        }
    }
}

/// The declarations of every crate of the checkout (a directory with a
/// `Cargo.toml`), over the `.rs` files it holds outside nested crates.
fn crate_declarations(root: &Path, files: &[String]) -> Vec<Declarations> {
    let crates: Vec<&str> = files
        .iter()
        .filter_map(|file| file.strip_suffix("Cargo.toml"))
        .collect();
    let mut declared: Vec<Declarations> = crates.iter().map(|_| Declarations::default()).collect();
    for file in files.iter().filter(|file| file.ends_with(".rs")) {
        let (owner, _) = crates
            .iter()
            .enumerate()
            .filter(|(_, dir)| file.starts_with(*dir))
            .max_by_key(|(_, dir)| dir.len())
            .expect("every source file is inside the root crate");
        let text = fs::read_to_string(root.join(file)).expect("a source file");
        for line in text.lines() {
            declared[owner].scan(line);
        }
    }
    declared
}

#[test]
fn every_type_item_the_docs_name_is_declared() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(&root, &root, &mut files);
    let declared = crate_declarations(&root, &files);
    let mut checked = 0;
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("a document");
        for span in code_spans(&text) {
            let Some((ty, item)) = type_reference(&span) else {
                continue;
            };
            checked += 1;
            let mut owners = declared.iter().filter(|d| d.types.contains(ty)).peekable();
            if owners.peek().is_none() {
                broken.push(format!("{doc}: `{span}`: no crate declares `{ty}`"));
            } else if !owners.any(|d| d.items.contains(item)) {
                broken.push(format!(
                    "{doc}: `{span}`: no crate declaring `{ty}` declares `{item}`"
                ));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} broken type references:\n{}",
        broken.len(),
        broken.join("\n")
    );
    assert!(
        checked >= 20,
        "only {checked} type references found; is the scan broken?"
    );
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

    assert_eq!(
        type_reference("Campaign::run_records"),
        Some(("Campaign", "run_records"))
    );
    assert_eq!(type_reference("Window::full()"), Some(("Window", "full")));
    assert_eq!(type_reference("T::f(a, b)"), Some(("T", "f")));
    let expressions = ["S::X(a).run(b)", "T::f(a"];
    for span in [
        "u64::MAX",
        "std::mem::take",
        "a/b.rs",
        "T::<u8>::f",
        "Campaign",
    ]
    .into_iter()
    .chain(expressions)
    {
        assert_eq!(type_reference(span), None, "{span}");
    }
    let mut declared = Declarations::default();
    for line in [
        "pub(crate) struct Lane<T> {",
        "    pub slots: Vec<T>,",
        "pub enum Scale {",
        "    Quick,",
        "    Multicast(Vec<u8>),",
        "    pub const fn serial() -> Self {",
        "        let x = Foo::bar(1);",
        "        call(",
    ] {
        declared.scan(line);
    }
    assert_eq!(
        declared.types,
        HashSet::from(["Lane".into(), "Scale".into()])
    );
    let items = ["slots", "Quick", "Multicast", "serial", "call"];
    assert_eq!(
        declared.items,
        items.into_iter().map(String::from).collect()
    );
}
