// Command main roots the testonly testdata program.
package main

import "lib"

func main() {
	_ = lib.Used()
	_ = lib.NewT()
}

// helper is in a main package, so it is a root itself.
func helper() {}
