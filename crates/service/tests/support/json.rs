// A small recursive-descent JSON validator for the service's tests: it
// accepts exactly one RFC 8259 object per line and also refuses a key
// repeated within one object, which a flat metrics line must never hold.
// Shared by `json_pin.rs` (a `#[path]` module) and the telemetry unit
// tests (`include!`), so every check of a served line uses one rule;
// hence plain comments, which `include!` accepts.

use std::collections::HashSet;

/// Checks that `line` is exactly one JSON object (RFC 8259) with no key
/// repeated within any object.
pub fn validate(line: &str) -> Result<(), String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        at: 0,
    };
    if p.peek() != Some(b'{') {
        return Err("not an object".into());
    }
    p.value()?;
    p.ws();
    match p.peek() {
        None => Ok(()),
        Some(_) => Err(format!("trailing bytes at {}", p.at)),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("no value at {}", self.at)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        let mut keys = HashSet::new();
        loop {
            self.ws();
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(format!("repeated key {key:?}"));
            }
            self.ws();
            self.expect(b':')?;
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at {}", self.at)),
            }
        }
    }

    /// A string; returns its raw (still escaped) contents.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.at += 1
                        }
                        Some(b'u') => {
                            let hex = self.bytes.get(self.at + 1..self.at + 5);
                            if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                                return Err(format!("bad \\u escape at {}", self.at));
                            }
                            self.at += 5;
                        }
                        _ => return Err(format!("bad escape at {}", self.at)),
                    }
                }
                Some(c) if c < 0x20 => return Err(format!("raw control byte at {}", self.at)),
                Some(_) => self.at += 1,
            }
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..self.at]).into_owned();
        self.at += 1;
        Ok(raw)
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at {}", self.at))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let digits = |p: &mut Self| {
            let start = p.at;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.at += 1;
            }
            p.at - start
        };
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(b'1'..=b'9') => {
                digits(self);
            }
            _ => return Err(format!("bad number at {}", self.at)),
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if digits(self) == 0 {
                return Err(format!("bad fraction at {}", self.at));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if digits(self) == 0 {
                return Err(format!("bad exponent at {}", self.at));
            }
        }
        Ok(())
    }
}
