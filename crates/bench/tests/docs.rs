//! EXPERIMENTS.md quotes `results/BENCH_throughput.json` cell by cell in
//! its kernel tables, and `results/BENCH_analyzer.json` row by row in its
//! analyzer table, whose `raw states`, `reduction` and `quotient` columns
//! read the artifact's `reduction` rows. These tests keep each pair in
//! step: a change that moves an artifact must move its table with it, and
//! a table edited by hand must still read what the artifact says.

use std::path::Path;

/// Table headers and the artifact fields they quote. A figure is read by
/// dropping everything but its digits, so `77.349×` reads as the
/// thousandths in `ratio_milli` and `10,251,400` as `10251400`.
const COLUMNS: [(&str, &str); 14] = [
    ("executed", "executed"),
    ("skipped", "skipped"),
    ("skip ratio", "ratio_milli"),
    ("ckpt bytes", "ckpt_bytes"),
    ("ckpt parts", "ckpt_parts"),
    ("rollbacks", "rollbacks"),
    ("parts restored", "parts_restored"),
    ("core", "wake_core"),
    ("checkpoint", "wake_checkpoint"),
    ("fault", "wake_fault"),
    ("watchdog", "wake_watchdog"),
    ("episode", "wake_episode"),
    ("window", "wake_window"),
    ("memory", "wake_memory"),
];

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text after `"key":` in a flat JSON object.
fn value_of<'a>(object: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let at = object
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {object}"))
        + pat.len();
    object[at..].trim_start()
}

/// The integer after `"key":` in a flat JSON object.
fn field(object: &str, key: &str) -> u64 {
    let value: String = value_of(object, key)
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    value
        .parse()
        .unwrap_or_else(|_| panic!("{key} is no integer in {object}"))
}

/// The boolean after `"key":` in a flat JSON object.
fn flag(object: &str, key: &str) -> bool {
    let value = value_of(object, key);
    match (value.starts_with("true"), value.starts_with("false")) {
        (true, _) => true,
        (_, true) => false,
        _ => panic!("{key} is no boolean in {object}"),
    }
}

/// A table figure, digits only.
fn digits(text: &str) -> u64 {
    let d: String = text.chars().filter(char::is_ascii_digit).collect();
    d.parse()
        .unwrap_or_else(|_| panic!("no figure in {text:?}"))
}

/// The artifact's flat objects whose first field is the string `key`,
/// each as `(value of key, flat JSON object)`.
fn artifact_objects<'a>(json: &'a str, key: &str) -> Vec<(&'a str, &'a str)> {
    let opener = format!("{{\"{key}\":");
    json.split(opener.as_str())
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().strip_prefix('"').expect("a string value");
            let name = &rest[..rest.find('"').expect("the value closes")];
            let object = &rest[..rest.find('}').expect("the object closes")];
            (name, object)
        })
        .collect()
}

/// Every table in the section headed `heading`: its header cells, then
/// its rows' cells.
fn tables<'a>(doc: &'a str, heading: &str) -> Vec<(Vec<&'a str>, Vec<Vec<&'a str>>)> {
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("no section {heading:?}"));
    let section = &doc[start..];
    let section = &section[..section[heading.len()..]
        .find("\n## ")
        .map_or(section.len(), |e| heading.len() + e)];
    let cells = |line: &'a str| -> Vec<&'a str> {
        let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
        inner.split('|').map(str::trim).collect()
    };
    let mut out = Vec::new();
    let mut lines = section.lines().peekable();
    while let Some(line) = lines.next() {
        if !line.starts_with('|') {
            continue;
        }
        let header = cells(line);
        lines.next(); // the |---| separator
        let mut rows = Vec::new();
        while let Some(row) = lines.next_if(|l| l.starts_with('|')) {
            rows.push(cells(row));
        }
        out.push((header, rows));
    }
    out
}

#[test]
fn kernel_tables_quote_the_throughput_artifact() {
    let json = repo_file("results/BENCH_throughput.json");
    let doc = repo_file("EXPERIMENTS.md");
    let cells = artifact_objects(&json, "tag");
    assert_eq!(cells.len(), 6, "three arms times two kernel modes");
    let tables = tables(&doc, "## Kernel throughput");
    assert!(!tables.is_empty(), "the section has a kernel table");
    for (header, rows) in &tables {
        assert_eq!(header[0], "cell", "{header:?}");
        assert_eq!(
            rows.len(),
            cells.len(),
            "one row per artifact cell: {header:?}"
        );
        for row in rows {
            let name = row[0].trim_matches('`');
            assert_eq!(row.len(), header.len(), "{name}: one figure per column");
            let (_, object) = cells
                .iter()
                .find(|(tag, _)| tag.strip_prefix("throughput/") == Some(name))
                .unwrap_or_else(|| panic!("row {name} has no artifact cell"));
            for (column, text) in header.iter().zip(row).skip(1) {
                let key = COLUMNS
                    .iter()
                    .find(|(h, _)| h == column)
                    .unwrap_or_else(|| panic!("column {column:?} quotes no artifact field"))
                    .1;
                assert_eq!(
                    digits(text),
                    field(object, key),
                    "EXPERIMENTS.md, {name}, {column}: {text}"
                );
            }
        }
    }
}

#[test]
fn analyzer_table_quotes_the_analyzer_artifact() {
    let json = repo_file("results/BENCH_analyzer.json");
    let doc = repo_file("EXPERIMENTS.md");
    let objects = artifact_objects(&json, "config");
    let runs: Vec<_> = objects
        .iter()
        .filter(|(_, object)| object.contains("\"mutant\": \"none\""))
        .collect();
    let reductions: Vec<_> = objects
        .iter()
        .filter(|(_, object)| object.contains("\"raw_states\""))
        .collect();
    let tables = tables(&doc, "## Analyzer sweep");
    assert_eq!(tables.len(), 1, "the section has one analyzer table");
    let (header, rows) = &tables[0];
    assert_eq!(rows.len(), runs.len(), "one row per unmutated artifact run");
    let column = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("no {name:?} column in {header:?}"))
    };
    // The table's column, then the artifact field it quotes.
    let quoted = [("canonical", "states"), ("represented", "represented")];
    let config = column("config");
    for row in rows {
        let name = row[config].trim_matches('`');
        let (_, object) = runs
            .iter()
            .find(|(config, _)| *config == name)
            .unwrap_or_else(|| panic!("row {name} has no unmutated artifact run"));
        let (_, reduction) = reductions
            .iter()
            .find(|(config, _)| *config == name)
            .unwrap_or_else(|| panic!("row {name} has no reduction row"));
        for (heading, key) in quoted {
            let text = row[column(heading)];
            assert_eq!(
                digits(text),
                field(object, key),
                "EXPERIMENTS.md, {name}, {heading}: {text}"
            );
        }
        // `150,000 (capped)` reads 150000 raw states, capped.
        let raw = row[column("raw states")];
        assert_eq!(
            digits(raw),
            field(reduction, "raw_states"),
            "EXPERIMENTS.md, {name}, raw states: {raw}"
        );
        assert_eq!(
            raw.contains("(capped)"),
            flag(reduction, "raw_capped"),
            "EXPERIMENTS.md, {name}, raw states: {raw}"
        );
        // `11.99x` reads 1199 hundredths.
        let factor = row[column("reduction")];
        assert_eq!(
            digits(factor),
            field(reduction, "factor_x100"),
            "EXPERIMENTS.md, {name}, reduction: {factor}"
        );
        let quotient = row[column("quotient")];
        assert_eq!(
            quotient.contains("exhaustive"),
            !flag(object, "hit_limit"),
            "EXPERIMENTS.md, {name}, quotient: {quotient}"
        );
    }
}
