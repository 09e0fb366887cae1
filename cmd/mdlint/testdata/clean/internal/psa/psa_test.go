package psa

import "mdtask/internal/oracle"

var _ = oracle.Check
