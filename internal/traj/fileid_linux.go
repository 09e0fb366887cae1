package traj

import (
	"os"
	"syscall"
)

// identify fstats f into the digest cache's key.
func identify(f *os.File) (fileIdentity, bool) {
	fi, err := f.Stat()
	if err != nil {
		return fileIdentity{}, false
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return fileIdentity{}, false
	}
	return fileIdentity{
		dev: uint64(st.Dev), ino: uint64(st.Ino), size: st.Size,
		mtimeNs: st.Mtim.Nano(), ctimeNs: st.Ctim.Nano(),
	}, true
}
