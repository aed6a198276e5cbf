//! Keeps `ARCHITECTURE.md`'s `[[path]]` / `[[path:line]]` pointers
//! checkable: every referenced path must exist in the repository and
//! every referenced line must lie inside its file and carry content —
//! not a blank line or a lone closing brace, which is where a pointer
//! lands once its file is edited above the cited item. A refactor that
//! deletes, shrinks or shifts a cited file therefore fails the test
//! suite until the document is updated.

use std::path::{Path, PathBuf};

/// One `[[…]]` pointer extracted from the document.
#[derive(Debug)]
struct Pointer {
    path: String,
    line: Option<usize>,
    /// 1-based line of ARCHITECTURE.md the pointer appears on, for
    /// actionable failure messages.
    at: usize,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn extract_pointers(document: &str) -> Vec<Pointer> {
    let mut pointers = Vec::new();
    for (i, line) in document.lines().enumerate() {
        let mut rest = line;
        while let Some(start) = rest.find("[[") {
            let Some(len) = rest[start + 2..].find("]]") else {
                break;
            };
            let inner = &rest[start + 2..start + 2 + len];
            rest = &rest[start + 2 + len + 2..];
            let (path, cited_line) = match inner.rsplit_once(':') {
                Some((path, line)) => match line.parse::<usize>() {
                    Ok(line) => (path, Some(line)),
                    // A colon without a trailing number is part of the
                    // path (not used today, but be liberal).
                    Err(_) => (inner, None),
                },
                None => (inner, None),
            };
            pointers.push(Pointer {
                path: path.to_string(),
                line: cited_line,
                at: i + 1,
            });
        }
    }
    pointers
}

/// Whether a cited line holds nothing a pointer could mean: it is blank
/// or only closes (or opens) a block, like `}` or `});`.
fn is_filler(line: &str) -> bool {
    line.trim().chars().all(|c| "{}()[];,".contains(c))
}

#[test]
fn architecture_doc_pointers_resolve() {
    let root = repo_root();
    let document = std::fs::read_to_string(root.join("ARCHITECTURE.md"))
        .expect("ARCHITECTURE.md exists at the repository root");
    let pointers = extract_pointers(&document);

    assert!(
        pointers.len() >= 40,
        "ARCHITECTURE.md should be densely cross-referenced; \
         found only {} [[…]] pointers",
        pointers.len()
    );

    let mut failures = Vec::new();
    for pointer in &pointers {
        // Paths are repository-relative and must stay inside the repo.
        if pointer.path.contains("..") || Path::new(&pointer.path).is_absolute() {
            failures.push(format!(
                "ARCHITECTURE.md:{}: pointer [[{}]] must be repo-relative",
                pointer.at, pointer.path
            ));
            continue;
        }
        let target = root.join(&pointer.path);
        if !target.exists() {
            failures.push(format!(
                "ARCHITECTURE.md:{}: [[{}]] does not exist",
                pointer.at, pointer.path
            ));
            continue;
        }
        if let Some(cited) = pointer.line {
            if !target.is_file() {
                failures.push(format!(
                    "ARCHITECTURE.md:{}: [[{}:{}]] cites a line of a non-file",
                    pointer.at, pointer.path, cited
                ));
                continue;
            }
            let content = std::fs::read_to_string(&target).unwrap_or_default();
            let lines: Vec<&str> = content.lines().collect();
            if cited == 0 || cited > lines.len() {
                failures.push(format!(
                    "ARCHITECTURE.md:{}: [[{}:{}]] is out of range ({} has {} lines) — \
                     update the pointer after refactoring the cited file",
                    pointer.at,
                    pointer.path,
                    cited,
                    pointer.path,
                    lines.len()
                ));
            } else if is_filler(lines[cited - 1]) {
                failures.push(format!(
                    "ARCHITECTURE.md:{}: [[{}:{}]] lands on {:?}, a line with no content — \
                     re-aim the pointer at the item it cites",
                    pointer.at,
                    pointer.path,
                    cited,
                    lines[cited - 1]
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "stale ARCHITECTURE.md pointers:\n{}",
        failures.join("\n")
    );

    // The contract of the document: at least one pointer into every
    // workspace crate, so no crate's section can silently disappear.
    for crate_dir in [
        "crates/types",
        "crates/metrics",
        "crates/obs",
        "crates/satisfaction",
        "crates/reputation",
        "crates/core",
        "crates/baselines",
        "crates/agents",
        "crates/mediation",
        "crates/simulator",
        "crates/bench",
    ] {
        assert!(
            pointers.iter().any(|p| p.path.starts_with(crate_dir)),
            "ARCHITECTURE.md has no pointer into {crate_dir}"
        );
    }
}

#[test]
fn blank_and_lone_brace_lines_are_filler() {
    for filler in ["", "   ", "}", "    };", "})", "{"] {
        assert!(is_filler(filler), "{filler:?}");
    }
    for content in [
        "pub fn explore() {",
        "    }  // end of loop",
        "struct Budget;",
    ] {
        assert!(!is_filler(content), "{content:?}");
    }
}

#[test]
fn pointer_extraction_parses_both_forms() {
    let pointers =
        extract_pointers("see [[a/b.rs:12]] and [[c/d.md]] or both [[e.rs:3]] [[f.rs]] here");
    assert_eq!(pointers.len(), 4);
    assert_eq!(pointers[0].path, "a/b.rs");
    assert_eq!(pointers[0].line, Some(12));
    assert_eq!(pointers[1].path, "c/d.md");
    assert_eq!(pointers[1].line, None);
    assert_eq!(pointers[3].path, "f.rs");
}
