#include "spe/spe_io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace drapid {

namespace {

std::string fmt(double v, int precision = 6) {
  std::ostringstream out;
  out.precision(precision);
  out << v;
  return out.str();
}

std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  return in;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write file: " + path);
  return out;
}

}  // namespace

void write_singlepulse(std::ostream& out,
                       const std::vector<SinglePulseEvent>& events) {
  out << "# DM      Sigma      Time (s)     Sample    Downfact\n";
  for (const auto& e : events) {
    out << fmt(e.dm) << ' ' << fmt(e.snr) << ' ' << fmt(e.time_s, 9) << ' '
        << e.sample << ' ' << e.downfact << '\n';
  }
}

std::vector<SinglePulseEvent> read_singlepulse(std::istream& in) {
  std::vector<SinglePulseEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    SinglePulseEvent e;
    if (!(row >> e.dm >> e.snr >> e.time_s >> e.sample >> e.downfact)) {
      throw std::runtime_error("malformed .singlepulse row: " + line);
    }
    events.push_back(e);
  }
  return events;
}

const char kDataFileHeader[] =
    "dataset,mjd,ra_deg,dec_deg,beam,dm,snr,time_s,sample,downfact";

CsvRow format_data_row(const ObservationId& obs, const SinglePulseEvent& spe) {
  return CsvRow{obs.dataset,       fmt(obs.mjd, 17),  fmt(obs.ra_deg, 17),
                fmt(obs.dec_deg, 17), std::to_string(obs.beam),
                fmt(spe.dm),       fmt(spe.snr),      fmt(spe.time_s, 9),
                std::to_string(spe.sample), std::to_string(spe.downfact)};
}

void parse_data_row(const CsvRow& row, ObservationId& obs,
                    SinglePulseEvent& spe) {
  if (row.size() != 10) {
    throw std::runtime_error("data row must have 10 fields, got " +
                             std::to_string(row.size()));
  }
  obs.dataset = row[0];
  obs.mjd = parse_double(row[1]);
  obs.ra_deg = parse_double(row[2]);
  obs.dec_deg = parse_double(row[3]);
  obs.beam = static_cast<int>(parse_int(row[4]));
  spe.dm = parse_double(row[5]);
  spe.snr = parse_double(row[6]);
  spe.time_s = parse_double(row[7]);
  spe.sample = parse_int(row[8]);
  spe.downfact = static_cast<int>(parse_int(row[9]));
}

void write_data_file(std::ostream& out,
                     const std::vector<ObservationData>& observations) {
  out << kDataFileHeader << '\n';
  for (const auto& obs : observations) {
    for (const auto& spe : obs.events) {
      out << format_csv_row(format_data_row(obs.id, spe)) << '\n';
    }
  }
}

void write_data_file(const std::string& path,
                     const std::vector<ObservationData>& observations) {
  auto out = open_output(path);
  write_data_file(out, observations);
}

std::vector<ObservationData> read_data_file(std::istream& in) {
  std::vector<ObservationData> result;
  std::map<std::string, std::size_t> index_by_key;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!saw_header) {
      saw_header = true;  // first non-empty line is the header
      continue;
    }
    ObservationId id;
    SinglePulseEvent spe;
    parse_data_row(parse_csv_line(line), id, spe);
    const std::string key = id.key();
    auto [it, inserted] = index_by_key.try_emplace(key, result.size());
    if (inserted) result.push_back(ObservationData{id, {}});
    result[it->second].events.push_back(spe);
  }
  return result;
}

std::vector<ObservationData> read_data_file(const std::string& path) {
  auto in = open_input(path);
  return read_data_file(in);
}

const char kClusterFileHeader[] =
    "dataset,mjd,ra_deg,dec_deg,beam,cluster_id,num_spes,dm_min,dm_max,"
    "time_min,time_max,snr_max,rank";

CsvRow format_cluster_row(const ClusterRecord& rec) {
  return CsvRow{rec.obs.dataset,
                fmt(rec.obs.mjd, 17),
                fmt(rec.obs.ra_deg, 17),
                fmt(rec.obs.dec_deg, 17),
                std::to_string(rec.obs.beam),
                std::to_string(rec.cluster_id),
                std::to_string(rec.num_spes),
                fmt(rec.dm_min),
                fmt(rec.dm_max),
                fmt(rec.time_min, 9),
                fmt(rec.time_max, 9),
                fmt(rec.snr_max),
                std::to_string(rec.rank)};
}

ClusterRecord parse_cluster_row(const CsvRow& row) {
  if (row.size() != 13) {
    throw std::runtime_error("cluster row must have 13 fields, got " +
                             std::to_string(row.size()));
  }
  ClusterRecord rec;
  rec.obs.dataset = row[0];
  rec.obs.mjd = parse_double(row[1]);
  rec.obs.ra_deg = parse_double(row[2]);
  rec.obs.dec_deg = parse_double(row[3]);
  rec.obs.beam = static_cast<int>(parse_int(row[4]));
  rec.cluster_id = static_cast<int>(parse_int(row[5]));
  rec.num_spes = static_cast<std::uint32_t>(parse_int(row[6]));
  rec.dm_min = parse_double(row[7]);
  rec.dm_max = parse_double(row[8]);
  rec.time_min = parse_double(row[9]);
  rec.time_max = parse_double(row[10]);
  rec.snr_max = parse_double(row[11]);
  rec.rank = static_cast<int>(parse_int(row[12]));
  return rec;
}

void write_cluster_file(std::ostream& out,
                        const std::vector<ClusterRecord>& clusters) {
  out << kClusterFileHeader << '\n';
  for (const auto& rec : clusters) {
    out << format_csv_row(format_cluster_row(rec)) << '\n';
  }
}

void write_cluster_file(const std::string& path,
                        const std::vector<ClusterRecord>& clusters) {
  auto out = open_output(path);
  write_cluster_file(out, clusters);
}

std::vector<ClusterRecord> read_cluster_file(std::istream& in) {
  std::vector<ClusterRecord> clusters;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!saw_header) {
      saw_header = true;
      continue;
    }
    clusters.push_back(parse_cluster_row(parse_csv_line(line)));
  }
  return clusters;
}

std::vector<ClusterRecord> read_cluster_file(const std::string& path) {
  auto in = open_input(path);
  return read_cluster_file(in);
}

// --- Binary candidate records (archive segments) ----------------------------

bool has_finite_fields(const SinglePulseEvent& event) {
  return std::isfinite(event.dm) && std::isfinite(event.snr) &&
         std::isfinite(event.time_s);
}

void append_candidate_record(WireWriter& w, const CandidateRecord& rec) {
  const std::string key = rec.obs.key();  // validates the id
  encode_value(w, static_cast<std::uint32_t>(key.size()));
  w.put_bytes(key.data(), key.size());
  encode_value(w, rec.event.dm);
  encode_value(w, rec.event.snr);
  encode_value(w, rec.event.time_s);
  encode_value(w, rec.event.sample);
  encode_value(w, static_cast<std::int32_t>(rec.event.downfact));
}

CandidateRecord decode_candidate_record(WireReader& r) {
  std::uint32_t key_len = 0;
  decode_value(r, key_len);
  if (key_len == 0) throw WireError("candidate record has an empty key");
  const char* key = r.get_bytes(key_len);
  CandidateRecord rec;
  rec.obs = ObservationId::from_key(std::string(key, key_len));
  decode_value(r, rec.event.dm);
  decode_value(r, rec.event.snr);
  decode_value(r, rec.event.time_s);
  decode_value(r, rec.event.sample);
  std::int32_t downfact = 0;
  decode_value(r, downfact);
  rec.event.downfact = downfact;
  if (!has_finite_fields(rec.event)) {
    throw WireError("candidate record has a non-finite dm, snr or time_s");
  }
  return rec;
}

}  // namespace drapid
