package service

// Internals shared with the external service_test package.
var (
	ScanSolve  = scanSolve
	ScanCreate = scanCreate
	VerifyForm = verifyForm
)
