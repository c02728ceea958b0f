//! Result-file emission for the experiment binaries.
//!
//! Each binary prints its human-readable tables to stdout and, where the
//! experiment produces telemetry, also writes a machine-readable JSON file
//! under `results/` so downstream tooling (plots, regression checks) never
//! has to scrape the console output.

use std::io::Write;
use std::path::PathBuf;

/// Writes `json` to `results/<name>.json`, creating the directory if
/// needed, and returns the path written.
pub fn write_results_json(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")?;
    Ok(path)
}

/// A bin's `results/<name>.json`: written (and its path printed) on a
/// full run; under `--check`, a smoke run that must leave the committed
/// `results/` as it found it, not written.
pub fn emit_results_json(name: &str, json: &str, check: bool) {
    if check {
        println!("--check: results/{name}.json left as it is.");
        return;
    }
    match write_results_json(name, json) {
        Ok(path) => println!("Results written to {}.", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_into_results_dir() {
        let path = write_results_json("report_module_selftest", "{\"ok\": true}").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"ok\": true}\n");
        std::fs::remove_file(&path).unwrap();
    }
}
