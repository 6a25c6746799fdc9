//! Reading service answers with the service's own JSON parser.

use iced_service::json::{self, Value};

/// One successful response envelope.
#[derive(Debug)]
pub struct Answer {
    /// `cached` flag of the envelope.
    pub cached: bool,
    /// The per-request `req` token.
    pub req: String,
    /// The `result` object.
    pub result: Value,
}

impl Answer {
    /// An unsigned integer field of the result.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.result
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result has no integer '{key}'"))
    }

    /// A finite number field of the result.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.result
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("result has no number '{key}'"))
    }
}

/// Parses a response line; anything but an `ok` envelope with a result
/// object is an error carrying the line.
pub fn parse(line: &str) -> Result<Answer, String> {
    let v = json::parse(line).map_err(|e| format!("unparsable answer ({e}): {line}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("error answer: {line}"));
    }
    let cached = v
        .get("cached")
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("answer has no 'cached': {line}"))?;
    let req = v
        .get("req")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("answer has no 'req': {line}"))?
        .to_string();
    let result = match v.get("result") {
        Some(r @ Value::Obj(_)) => r.clone(),
        _ => return Err(format!("answer has no result object: {line}")),
    };
    Ok(Answer {
        cached,
        req,
        result,
    })
}

/// The `error.code` of an error answer, if the line is one.
pub fn error_code(line: &str) -> Option<String> {
    let v = json::parse(line).ok()?;
    (v.get("ok").and_then(Value::as_bool) == Some(false))
        .then(|| v.get("error")?.get("code")?.as_str().map(str::to_string))
        .flatten()
}

/// The answer line with its per-request parts neutralised: `req` emptied
/// and `cached` forced to `false`. A warm hit must equal its cold answer
/// byte for byte under this form.
///
/// The envelope renders `id`, `req`, `ok`, `verb`, `cached` and then
/// `result`, so the first `"cached":` and `"req":"…"` in the line are the
/// envelope's own, never a field inside the result.
pub fn canonical(line: &str) -> Result<String, String> {
    let a = parse(line)?;
    let req = format!("\"req\":\"{}\"", a.req);
    let cached = format!("\"cached\":{}", a.cached);
    Ok(line
        .replacen(&req, "\"req\":\"\"", 1)
        .replacen(&cached, "\"cached\":false", 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_service::proto::render_ok;
    use iced_service::{RequestId, Verb};

    fn line(seq: u64, cached: bool, result: &str) -> String {
        render_ok(
            0,
            Some(RequestId { conn: 1, seq }),
            Verb::Compile,
            cached,
            result,
        )
    }

    #[test]
    fn fields_come_from_the_result_object() {
        let a = parse(&line(
            3,
            false,
            r#"{"kernel":"fir","ii":4,"power_mw":1.25}"#,
        ))
        .unwrap();
        assert!(!a.cached);
        assert_eq!(a.req, "c1-3");
        assert_eq!(a.u64("ii"), Ok(4));
        assert_eq!(a.f64("power_mw"), Ok(1.25));
        assert!(a.u64("kernel").is_err());
        assert!(a.f64("missing").is_err());
    }

    #[test]
    fn error_and_malformed_answers_are_rejected() {
        assert!(parse(r#"{"id":0,"ok":false,"error":{"code":"map_error"}}"#).is_err());
        assert!(parse("not json").is_err());
        assert!(parse(r#"{"id":0,"req":"c1-1","ok":true,"cached":false,"result":3}"#).is_err());
        assert!(parse(r#"{"id":0,"req":"c1-1","ok":true,"result":{}}"#).is_err());
    }

    #[test]
    fn error_codes_come_from_error_answers_only() {
        let err =
            r#"{"id":0,"ok":false,"verb":"compile","error":{"code":"map_error","message":"m"}}"#;
        assert_eq!(error_code(err).as_deref(), Some("map_error"));
        assert_eq!(error_code(&line(1, false, r#"{"code":"x"}"#)), None);
        assert_eq!(error_code("{"), None);
    }

    #[test]
    fn a_hit_canonicalises_to_its_cold_answer() {
        let body = r#"{"kernel":"fir","ii":4,"cached_note":"x","req":"c1-1"}"#;
        let cold = line(1, false, body);
        let hit = line(57, true, body);
        assert_ne!(cold, hit);
        assert_eq!(canonical(&cold).unwrap(), canonical(&hit).unwrap());
        // Fields inside the result are left alone.
        assert!(canonical(&cold).unwrap().contains(r#""req":"c1-1"}"#));
    }

    #[test]
    fn a_changed_result_does_not_canonicalise_equal() {
        let cold = line(1, false, r#"{"kernel":"fir","ii":4}"#);
        let hit = line(2, true, r#"{"kernel":"fir","ii":5}"#);
        assert_ne!(canonical(&cold).unwrap(), canonical(&hit).unwrap());
    }
}
