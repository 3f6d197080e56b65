#include "spe/spe_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace drapid {
namespace {

ObservationId obs(const std::string& dataset, int beam) {
  ObservationId id;
  id.dataset = dataset;
  id.mjd = 56000.5;
  id.ra_deg = 180.0;
  id.dec_deg = -30.25;
  id.beam = beam;
  return id;
}

std::vector<SinglePulseEvent> sample_events() {
  return {{12.5, 6.1, 100.001, 12345, 2},
          {12.6, 7.3, 100.002, 12346, 4},
          {13.0, 5.2, 200.5, 98765, 1}};
}

TEST(SinglepulseFormat, RoundTripsThroughStream) {
  std::stringstream io;
  write_singlepulse(io, sample_events());
  const auto back = read_singlepulse(io);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_NEAR(back[0].dm, 12.5, 1e-9);
  EXPECT_NEAR(back[1].snr, 7.3, 1e-9);
  EXPECT_EQ(back[2].sample, 98765);
  EXPECT_EQ(back[1].downfact, 4);
}

TEST(SinglepulseFormat, HeaderIsCommented) {
  std::stringstream io;
  write_singlepulse(io, {});
  EXPECT_EQ(io.str()[0], '#');
  io.seekg(0);
  EXPECT_TRUE(read_singlepulse(io).empty());
}

TEST(SinglepulseFormat, MalformedRowThrows) {
  std::istringstream in("1.0 2.0 three 4 5\n");
  EXPECT_THROW(read_singlepulse(in), std::runtime_error);
}

TEST(DataFile, RowRoundTrip) {
  const ObservationId id = obs("PALFA", 2);
  const SinglePulseEvent e{42.75, 9.5, 1234.56789, 777, 8};
  ObservationId id2;
  SinglePulseEvent e2;
  parse_data_row(format_data_row(id, e), id2, e2);
  EXPECT_EQ(id2, id);
  EXPECT_NEAR(e2.dm, e.dm, 1e-6);
  EXPECT_NEAR(e2.snr, e.snr, 1e-6);
  EXPECT_NEAR(e2.time_s, e.time_s, 1e-6);
  EXPECT_EQ(e2.sample, e.sample);
  EXPECT_EQ(e2.downfact, e.downfact);
}

// The row encoder prints every double as `std::ostream << v` at the field's
// precision would: 17 for mjd/ra/dec, 6 for dm/snr, 9 for time_s.
std::string stream_text(double v, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << v;
  return out.str();
}

TEST(DataFile, NumberTextMatchesStreamFormatting) {
  using limits = std::numeric_limits<double>;
  const double values[] = {0.0,
                           -0.0,
                           limits::denorm_min(),
                           -limits::denorm_min(),
                           limits::min() / 3.0,
                           limits::min(),
                           limits::max(),
                           -limits::max(),
                           1e-5,
                           -1e-5,
                           1.2345678901234567e-5,
                           1e17,
                           1.2345678901234567e17,
                           123456.0,
                           1234567.0,
                           -42.0,
                           9007199254740993.0,
                           56000.5,
                           0.1,
                           1.0 / 3.0,
                           100.001,
                           999999.5,
                           limits::infinity(),
                           -limits::infinity(),
                           limits::quiet_NaN(),
                           -limits::quiet_NaN()};
  for (const double v : values) {
    ObservationId id;
    id.dataset = "X";
    id.mjd = v;
    id.ra_deg = v;
    id.dec_deg = v;
    const SinglePulseEvent e{v, v, v, 0, 1};
    const CsvRow row = format_data_row(id, e);
    ASSERT_EQ(row.size(), 10u);
    for (std::size_t col : {1u, 2u, 3u}) {
      EXPECT_EQ(row[col], stream_text(v, 17)) << "column " << col << " " << v;
    }
    for (std::size_t col : {5u, 6u}) {
      EXPECT_EQ(row[col], stream_text(v, 6)) << "column " << col << " " << v;
    }
    EXPECT_EQ(row[7], stream_text(v, 9)) << v;
  }
}

TEST(DataFile, WrongColumnCountThrows) {
  ObservationId id;
  SinglePulseEvent e;
  EXPECT_THROW(parse_data_row({"a", "b"}, id, e), std::runtime_error);
}

TEST(DataFile, GroupsRowsBackIntoObservations) {
  std::vector<ObservationData> original;
  original.push_back({obs("PALFA", 0), sample_events()});
  original.push_back({obs("PALFA", 1), {sample_events()[0]}});
  std::stringstream io;
  write_data_file(io, original);
  const auto back = read_data_file(io);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, original[0].id);
  EXPECT_EQ(back[0].events.size(), 3u);
  EXPECT_EQ(back[1].id, original[1].id);
  EXPECT_EQ(back[1].events.size(), 1u);
}

TEST(DataFile, InterleavedRowsStillGroup) {
  // Rows from two observations interleaved, as after a distributed write.
  std::stringstream io;
  io << kDataFileHeader << '\n';
  const auto a = obs("GBT350Drift", 0);
  const auto b = obs("GBT350Drift", 1);
  const auto events = sample_events();
  io << format_csv_row(format_data_row(a, events[0])) << '\n';
  io << format_csv_row(format_data_row(b, events[1])) << '\n';
  io << format_csv_row(format_data_row(a, events[2])) << '\n';
  const auto back = read_data_file(io);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].events.size(), 2u);
  EXPECT_EQ(back[1].events.size(), 1u);
}

TEST(ClusterFile, RowRoundTrip) {
  ClusterRecord rec;
  rec.obs = obs("PALFA", 5);
  rec.cluster_id = 17;
  rec.num_spes = 230;
  rec.dm_min = 10.0;
  rec.dm_max = 15.5;
  rec.time_min = 99.5;
  rec.time_max = 100.5;
  rec.snr_max = 14.7;
  rec.rank = 3;
  const ClusterRecord back = parse_cluster_row(format_cluster_row(rec));
  EXPECT_EQ(back.obs, rec.obs);
  EXPECT_EQ(back.cluster_id, rec.cluster_id);
  EXPECT_EQ(back.num_spes, rec.num_spes);
  EXPECT_NEAR(back.dm_max, rec.dm_max, 1e-6);
  EXPECT_NEAR(back.snr_max, rec.snr_max, 1e-6);
  EXPECT_EQ(back.rank, rec.rank);
}

TEST(ClusterFile, FileRoundTrip) {
  std::vector<ClusterRecord> clusters(3);
  for (int i = 0; i < 3; ++i) {
    clusters[static_cast<std::size_t>(i)].obs = obs("PALFA", i);
    clusters[static_cast<std::size_t>(i)].cluster_id = i;
    clusters[static_cast<std::size_t>(i)].num_spes =
        static_cast<std::uint32_t>(10 * (i + 1));
  }
  std::stringstream io;
  write_cluster_file(io, clusters);
  const auto back = read_cluster_file(io);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[2].num_spes, 30u);
  EXPECT_EQ(back[1].obs.beam, 1);
}

TEST(ClusterFile, WrongColumnCountThrows) {
  EXPECT_THROW(parse_cluster_row({"x"}), std::runtime_error);
}

}  // namespace
}  // namespace drapid
