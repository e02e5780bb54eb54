package disamb

// LintFresh is Lint with run reuse switched off: every cell's dynamic
// checks interpret the cell's own program. The differential tests hold
// Lint's reports to it.
func LintFresh(src string, o LintOptions) (*LintReport, error) { return lint(src, o, false) }
