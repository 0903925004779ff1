//! The emitted HLS project: an in-memory file set.
//!
//! [`crate::LoweredDesign::generate`] renders every file of an hls4ml-style
//! project into an [`HlsProject`]. The project can be inspected in memory
//! (for tests and the framework's reports) or written to disk for a real
//! Vivado-HLS run.

use crate::error::HlsError;
use std::collections::BTreeMap;
use std::path::Path;

/// An in-memory HLS project: a map from relative file path to file contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HlsProject {
    files: BTreeMap<String, String>,
}

impl HlsProject {
    /// Assembles a project from pre-rendered files (the lowered-graph
    /// emitter builds its file set step by step).
    pub(crate) fn from_files(files: BTreeMap<String, String>) -> Self {
        HlsProject { files }
    }

    /// The contents of a file, if it exists.
    pub fn file(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(String::as_str)
    }

    /// All file paths in the project.
    pub fn paths(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }

    /// Total number of generated source lines.
    pub fn total_lines(&self) -> usize {
        self.files.values().map(|c| c.lines().count()).sum()
    }

    /// Writes the project under `root` (creating directories as needed).
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::Io`] if any file cannot be written.
    pub fn write_to_dir(&self, root: &Path) -> Result<(), HlsError> {
        for (rel, contents) in &self.files {
            let path = root.join(rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&path, contents)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project() -> HlsProject {
        let files = [
            ("firmware/top.cpp", "void top() {\n}\n"),
            ("firmware/nnet_utils/nnet_mc_dropout.h", "#pragma once\n"),
            ("build_prj.tcl", "csynth_design\nexit\n"),
        ];
        HlsProject::from_files(
            files
                .iter()
                .map(|(p, c)| (p.to_string(), c.to_string()))
                .collect(),
        )
    }

    #[test]
    fn project_contains_expected_files() {
        let project = project();
        assert_eq!(
            project.paths(),
            [
                "build_prj.tcl",
                "firmware/nnet_utils/nnet_mc_dropout.h",
                "firmware/top.cpp"
            ]
        );
        assert_eq!(project.file("build_prj.tcl"), Some("csynth_design\nexit\n"));
        assert_eq!(project.file("firmware/missing.h"), None);
        assert_eq!(project.total_lines(), 5);
    }

    #[test]
    fn project_writes_to_disk() {
        let project = project();
        let dir = std::env::temp_dir().join(format!("bnn_hls_project_{}", std::process::id()));
        project.write_to_dir(&dir).unwrap();
        // Nested directories are created and every file round-trips.
        for path in project.paths() {
            let written = std::fs::read_to_string(dir.join(path)).unwrap();
            assert_eq!(Some(written.as_str()), project.file(path), "{path}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_root_is_an_io_error() {
        // A regular file where the project root should be: no directory
        // can be created under it.
        let blocker = std::env::temp_dir().join(format!("bnn_hls_blocker_{}", std::process::id()));
        std::fs::write(&blocker, "not a directory").unwrap();
        let result = project().write_to_dir(&blocker);
        std::fs::remove_file(&blocker).unwrap();
        assert!(matches!(result, Err(HlsError::Io(_))), "{result:?}");
    }
}
