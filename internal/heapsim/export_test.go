package heapsim

// MaxRequest exports maxRequest to the external tests.
const MaxRequest = maxRequest
