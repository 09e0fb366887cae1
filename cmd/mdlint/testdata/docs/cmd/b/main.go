package main

import "mdtask/internal/a"

func main() { a.A() }
