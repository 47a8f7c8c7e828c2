import pytest

from decisive.field import (
    Criterion,
    NlosPosition,
    endurance_metrics,
    nlos_max_performance,
    requirements_met,
)


class TestEndurance:
    def test_twenty_laps_eight_minutes(self):
        distance, speed = endurance_metrics(20, 8.0)
        assert distance == 260.0
        assert speed == pytest.approx(0.5417, abs=1e-3)

    def test_zero_laps(self):
        distance, speed = endurance_metrics(0, 10.0)
        assert distance == 0.0 and speed == 0.0

    def test_long_slow_run(self):
        distance, speed = endurance_metrics(23, 32.0)
        assert distance == 299.0
        assert speed == pytest.approx(0.1557, abs=1e-3)

    def test_distance_is_lap_multiple(self):
        for laps in range(0, 40, 7):
            distance, _ = endurance_metrics(laps, 5.0)
            assert distance % 13.0 == 0.0

def positions(specs):
    return [
        NlosPosition(dist, ((1, "drywall"),), connect, fly)
        for dist, connect, fly in specs
    ]


class TestNlos:
    def test_good_through_second_wall(self):
        found = positions([
            (5.0, "good", "possible"),
            (14.0, "good", "possible"),
            (20.0, "good", "possible"),
            (25.0, "none", "not_possible"),
            (27.0, "none", "not_possible"),
        ])
        static, flying = nlos_max_performance(found)
        assert static.distance == 20.0
        assert flying.distance == 20.0

    def test_all_failed(self):
        static, flying = nlos_max_performance(
            positions([(5.0, "none", "not_possible")])
        )
        assert static is None and flying is None

    def test_all_good(self):
        static, _ = nlos_max_performance(
            positions([(5.0, "good", "possible"), (31.0, "good", "possible")])
        )
        assert static.distance == 31.0

    def test_monotone_in_added_positions(self):
        base = positions([(10.0, "good", "possible")])
        static_before, _ = nlos_max_performance(base)
        farther = base + positions([(15.0, "good", "possible")])
        static_after, _ = nlos_max_performance(farther)
        assert static_after.distance >= static_before.distance


class TestRequirements:
    def test_three_of_four(self):
        criteria = [
            Criterion("hd_video_min", "min", 120),
            Criterion("weight_lb", "max", 5),
            Criterion("battery_type", "equals", "Li-ion"),
            Criterion("data_access", "contains", "SD card"),
        ]
        responses = {
            "hd_video_min": 150,
            "weight_lb": 4.5,
            "battery_type": "Li-po",
            "data_access": "SD card removal",
        }
        result = requirements_met(responses, criteria)
        assert result.percentage == pytest.approx(75.0)
        assert result.per_field["battery_type"] is False

    def test_min_threshold_fails_below(self):
        result = requirements_met({"hd_video_min": 110}, [Criterion("hd_video_min", "min", 120)])
        assert result.percentage == 0.0

    def test_missing_response_fails(self):
        result = requirements_met({}, [Criterion("hd_video_min", "min", 120)])
        assert result.per_field["hd_video_min"] is False
        assert result.percentage == 0.0

