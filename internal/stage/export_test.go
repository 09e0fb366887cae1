package stage

import "encoding/json"

// RegisterKind registers a unit kind named name for a test: the decoder
// and check of kind like, with exec as its body. The returned func
// removes it. Register before any transport runs and remove after all
// have stopped: the kind table is read without a lock.
func RegisterKind(name, like string, exec func(desc json.RawMessage, env Env) ([]byte, error)) func() {
	k := kinds[like]
	k.exec = exec
	kinds[name] = k
	return func() { delete(kinds, name) }
}
