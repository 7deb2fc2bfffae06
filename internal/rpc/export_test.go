package rpc

// DecodeResponse exposes the response decoder to the external tests.
var DecodeResponse = decodeResponse
