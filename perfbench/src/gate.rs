//! The correctness gate, run outside each operation's timed window. A
//! mismatch counts as a failed operation; it never aborts the run.

use sciduction::json::Value;
use sciduction_proof::{check_certificate, check_drat, parse_dimacs, Proof, SmtCertificate};
use std::collections::HashMap;

/// Checks one served response against the reference verdict computed by
/// a direct library call. Any error frame (`EBUSY`, `EADMIT`,
/// `EINTERNAL`, …) is a failure.
pub fn check_response(resp: &Value, expected: &str) -> Result<(), String> {
    if resp.get("ok").and_then(Value::as_bool) != Some(true) {
        let code = resp.get("code").and_then(Value::as_str).unwrap_or("?");
        let message = resp.get("message").and_then(Value::as_str).unwrap_or("");
        return Err(format!("error frame {code}: {message}"));
    }
    match resp.get("verdict").and_then(Value::as_str) {
        Some(v) if v == expected => Ok(()),
        Some(v) => Err(format!("served {v:?}, library says {expected:?}")),
        None => Err("response carries no verdict".into()),
    }
}

fn field<'a>(cert: &'a Value, key: &str) -> Result<&'a str, String> {
    cert.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("certificate reference lacks {key:?}"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Re-checks served certificates from the files they name. Served
/// certificates repeat byte for byte whenever a job repeats, so each
/// distinct content is parsed and checked once and every copy is
/// compared to it in full.
#[derive(Default)]
pub struct CertChecker {
    verdicts: HashMap<String, Result<(), String>>,
}

impl CertChecker {
    pub fn check(&mut self, cert: &Value) -> Result<(), String> {
        let kind = field(cert, "kind")?;
        let texts = match kind {
            "scicert" => vec![read(field(cert, "path")?)?],
            "drat" => vec![read(field(cert, "cnf")?)?, read(field(cert, "proof")?)?],
            other => return Err(format!("unknown certificate kind {other:?}")),
        };
        let key = format!("{kind}\0{}", texts.join("\0"));
        if let Some(v) = self.verdicts.get(&key) {
            return v.clone();
        }
        let verdict = match kind {
            "scicert" => SmtCertificate::parse(&texts[0])
                .map_err(|e| format!("scicert does not parse: {e}"))
                .and_then(|c| check_certificate(&c).map_err(|e| format!("scicert rejected: {e}"))),
            _ => parse_dimacs(&texts[0])
                .map_err(|e| format!("cnf does not parse: {e}"))
                .and_then(|cnf| {
                    let proof = Proof::parse_drat(&texts[1])
                        .map_err(|e| format!("drat does not parse: {e}"))?;
                    check_drat(&cnf, &proof).map_err(|e| format!("drat rejected: {e}"))
                }),
        }
        .map(|_| ());
        self.verdicts.insert(key, verdict.clone());
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciduction::json;
    use sciduction_server::protocol::render_done;
    use sciduction_server::{Engine, FigJob, JobCommon, JobSpec};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-scratch")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fig(name: &str, proof: bool) -> JobSpec {
        JobSpec::Fig(FigJob {
            name: name.into(),
            proof,
            common: JobCommon {
                threads: 1,
                ..JobCommon::default()
            },
        })
    }

    fn served(engine: &Engine, spec: &JobSpec) -> Value {
        let out = engine.execute("gate-test", spec).unwrap();
        let line = render_done(
            1,
            &out.verdict,
            &out.receipt,
            out.certificate.as_ref(),
            &out.detail,
        );
        json::parse(&line).unwrap()
    }

    #[test]
    fn corrupted_reference_verdict_counts_as_a_failure() {
        let spec = fig("fig8_p1_equiv_w8", false);
        let resp = served(&Engine::new(None), &spec);
        let reference = crate::layers::reference_verdict(&spec);
        assert_eq!(check_response(&resp, &reference), Ok(()));
        let corrupted = if reference == "unsat" { "sat" } else { "unsat" };
        assert!(check_response(&resp, corrupted).is_err());
        let busy = json::parse(r#"{"id":1,"ok":false,"code":"EBUSY","message":"full"}"#).unwrap();
        assert!(check_response(&busy, &reference).is_err());
    }

    #[test]
    fn truncated_certificates_count_as_failures() {
        let dir = scratch("truncated");
        let engine = Engine::new(Some(dir));
        for (name, file_key) in [
            ("fig8_p1_equiv_w8", "path"),
            ("fig10_mode_exclusion", "proof"),
        ] {
            let resp = served(&engine, &fig(name, true));
            let cert = resp.get("certificate").unwrap().clone();
            assert_eq!(CertChecker::default().check(&cert), Ok(()), "{name}");
            let path = cert.get(file_key).unwrap().as_str().unwrap().to_string();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            assert!(CertChecker::default().check(&cert).is_err(), "{name}");
        }
    }

    #[test]
    fn checker_remembers_verdicts_per_content() {
        let dir = scratch("dedupe");
        let engine = Engine::new(Some(dir));
        let resp = served(&engine, &fig("fig8_p2_equiv_w8", true));
        let cert = resp.get("certificate").unwrap().clone();
        let mut checker = CertChecker::default();
        assert_eq!(checker.check(&cert), Ok(()));
        // A later copy with different bytes is checked afresh.
        let path = cert.get("path").unwrap().as_str().unwrap().to_string();
        std::fs::write(&path, "scicert v1\n").unwrap();
        assert!(checker.check(&cert).is_err());
    }
}
