// Structured sinks for engine sweep records: CSV and JSON documents plus
// parsers for both, so sweep output round-trips losslessly (doubles are
// emitted with max precision — the human-facing figure tables format their
// own digits).
#pragma once

#include <string>
#include <vector>

#include "engine/scenario.hpp"

namespace sysgo::io {

/// CSV column header line for sweep records.
[[nodiscard]] std::string sweep_csv_header();

/// One record as a CSV line (ends with '\n').
[[nodiscard]] std::string sweep_csv_row(const engine::SweepRecord& r);

/// Parse one data row produced by sweep_csv_row (header-less; the result
/// store's record codec).  Throws std::invalid_argument on malformed input.
[[nodiscard]] engine::SweepRecord parse_sweep_csv_record(const std::string& line);

/// Full CSV document: header + one line per record.
[[nodiscard]] std::string sweep_csv(const std::vector<engine::SweepRecord>& records);

/// Parse a sweep CSV document (as produced by sweep_csv).  Throws
/// std::invalid_argument on malformed input.
[[nodiscard]] std::vector<engine::SweepRecord> parse_sweep_csv(const std::string& text);

/// One record as a single-line JSON object (no trailing newline).
[[nodiscard]] std::string sweep_json_record(const engine::SweepRecord& r);

/// Full JSON document: an array of record objects.
[[nodiscard]] std::string sweep_json(const std::vector<engine::SweepRecord>& records);

/// Parse a sweep JSON document (as produced by sweep_json).  Throws
/// std::invalid_argument on malformed input.
[[nodiscard]] std::vector<engine::SweepRecord> parse_sweep_json(const std::string& text);

}  // namespace sysgo::io
