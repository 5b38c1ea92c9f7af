//! Command-line flags of the `qppt-server` and `qppt-router` binaries.
//!
//! A binary looks each flag up by name — `--name <value>` options through
//! [`Flags::value`], bare `--name` switches through [`Flags::switch`] —
//! and then calls [`Flags::finish`], before it generates data or waits on
//! a fleet. Every lookup consumes the arguments it matched, so whatever is
//! left at `finish` is a flag the binary does not know (a typo, or a flag
//! a newer build removed): the process exits 2 with one stderr line naming
//! it, instead of starting silently on the defaults. A value that does not
//! parse, or an option with no value, exits 2 the same way.

use std::fmt::Display;
use std::str::FromStr;

/// A binary's command line, consumed flag by flag (see module docs).
#[derive(Debug)]
pub struct Flags {
    prog: &'static str,
    args: Vec<String>,
    used: Vec<bool>,
}

impl Flags {
    /// Wraps `args` (without the program name) for the binary `prog`,
    /// which prefixes every error line.
    pub fn new(prog: &'static str, args: Vec<String>) -> Self {
        let used = vec![false; args.len()];
        Self { prog, args, used }
    }

    /// The value of option `flag`, or `default` when it is absent. Exits 2
    /// when the value is missing or does not parse as `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str, default: T) -> T {
        self.try_value(flag, default)
            .unwrap_or_else(|e| self.fail(e))
    }

    /// Whether switch `flag` was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.take(flag).is_some()
    }

    /// Exits 2 naming the first argument no lookup consumed. Call it after
    /// the last lookup and before any real work.
    pub fn finish(&self) {
        if let Some(e) = self.leftover() {
            self.fail(e);
        }
    }

    /// Prints `<prog>: <msg>` to stderr and exits 2 — the status of every
    /// command-line error, including the binaries' own value checks.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.prog);
        std::process::exit(2)
    }

    /// Marks the first unconsumed occurrence of `flag` consumed and
    /// returns its position.
    fn take(&mut self, flag: &str) -> Option<usize> {
        let i = (0..self.args.len()).find(|&i| !self.used[i] && self.args[i] == flag)?;
        self.used[i] = true;
        Some(i)
    }

    fn try_value<T: FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        let Some(i) = self.take(flag) else {
            return Ok(default);
        };
        match self.args.get(i + 1) {
            Some(v) if !self.used[i + 1] => {
                self.used[i + 1] = true;
                v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
            }
            _ => Err(format!("flag {flag} needs a value")),
        }
    }

    fn leftover(&self) -> Option<String> {
        let i = self.used.iter().position(|u| !u)?;
        let a = &self.args[i];
        let known = (0..self.args.len()).any(|j| self.used[j] && self.args[j] == *a);
        Some(if known {
            format!("flag {a} given twice")
        } else if a.starts_with("--") {
            format!("unknown flag {a}")
        } else {
            format!("unexpected argument {a}")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str) -> Flags {
        Flags::new("t", line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn known_flags_parse_and_consume_everything() {
        let mut f = flags("--sf 0.5 --no-cache --addr 127.0.0.1:1");
        assert_eq!(f.try_value("--sf", 0.1), Ok(0.5));
        assert_eq!(f.try_value("--threads", 4usize), Ok(4));
        assert!(f.switch("--no-cache"));
        assert!(!f.switch("--no-obs"));
        assert_eq!(
            f.try_value("--addr", String::new()),
            Ok("127.0.0.1:1".to_string())
        );
        assert_eq!(f.leftover(), None);
    }

    #[test]
    fn leftovers_name_the_offending_argument() {
        let mut f = flags("--cache-result-m 8 --sf 0.5");
        f.try_value("--sf", 0.1).unwrap();
        assert_eq!(
            f.leftover().as_deref(),
            Some("unknown flag --cache-result-m")
        );

        let mut f = flags("--sf 0.5 stray");
        f.try_value("--sf", 0.1).unwrap();
        assert_eq!(f.leftover().as_deref(), Some("unexpected argument stray"));

        let mut f = flags("--sf 0.5 --sf 0.2");
        f.try_value("--sf", 0.1).unwrap();
        assert_eq!(f.leftover().as_deref(), Some("flag --sf given twice"));
    }

    #[test]
    fn bad_or_missing_values_are_errors() {
        let mut f = flags("--sf big");
        assert_eq!(
            f.try_value("--sf", 0.1),
            Err("bad value for --sf: big".to_string())
        );
        let mut f = flags("--sf");
        assert_eq!(
            f.try_value("--sf", 0.1),
            Err("flag --sf needs a value".to_string())
        );
        // A switch already consumed is not an option's value.
        let mut f = flags("--addr --no-obs");
        assert!(f.switch("--no-obs"));
        assert_eq!(
            f.try_value("--addr", String::new()),
            Err("flag --addr needs a value".to_string())
        );
    }
}
