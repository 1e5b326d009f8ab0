// Fixture: a `wait_while` that rustfmt split onto its own line. One
// producer flips the waited-on flag and notifies; the other flips it
// without a notify (and without a `// NO-NOTIFY:` justification), a missed
// wakeup. The condvar pass must still see the wait, tie its guard to
// `state`, and flag the second producer's mutation.

struct S {
    ready: std::sync::Condvar,
    state: std::sync::Mutex<bool>,
}

impl S {
    fn consume(&self) {
        let guard = self.state.lock().unwrap();
        let _guard = self
            .ready
            .wait_while(guard, |done| !*done)
            .unwrap();
    }

    fn produce(&self) {
        *self.state.lock().unwrap() = true;
        self.ready.notify_all();
    }

    fn produce_quietly(&self) {
        let mut guard = self.state.lock().unwrap();
        *guard = true;
    }
}
