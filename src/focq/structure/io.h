// Plain-text serialisation of sigma-structures, so databases can be fed to
// the CLI and exchanged between runs.
//
// Format (line oriented, '#' starts a comment):
//
//   universe 10
//   relation E 2
//   0 1
//   1 2
//   relation R 1
//   3
//
// Every `relation NAME ARITY` line opens a block of whitespace-separated
// element-id tuples (one per line, ARITY ids each; an arity-0 relation holds
// iff a single empty tuple line "()" appears). Every number is a whole
// unsigned decimal token; a malformed line fails with "line N: ...".
#ifndef FOCQ_STRUCTURE_IO_H_
#define FOCQ_STRUCTURE_IO_H_

#include <iosfwd>
#include <string>

#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

/// Parses a structure from text.
Result<Structure> ReadStructure(const std::string& text);

/// Reads from a file path.
Result<Structure> ReadStructureFile(const std::string& path);

/// Serialises a structure in the same format (round-trips through
/// ReadStructure).
std::string WriteStructure(const Structure& a);

/// Convenience: parses a plain "u v" edge list (one undirected edge per
/// line; vertex count = max id + 1, or `min_vertices` if larger) into a
/// symmetric {E/2}-structure.
Result<Structure> ReadEdgeList(const std::string& text,
                               std::size_t min_vertices = 0);

}  // namespace focq

#endif  // FOCQ_STRUCTURE_IO_H_
