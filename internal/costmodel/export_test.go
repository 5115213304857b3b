package costmodel

// NodePaths is nodePaths for the external tests.
var NodePaths = nodePaths
