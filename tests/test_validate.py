import json

import pytest

from pnav.gridmap import MapFormatError, load_map
from pnav.trajectory import TrajectoryError, timed_from_json

MAP = {"width": 1, "height": 1, "resolution": 1.0, "origin": [0, 0], "rows": ["."]}
TRAJECTORY = {"v": 1.0, "omega_deg": 90.0, "dt": 0.05,
              "samples": [{"t": 0.0, "x": 0.5, "y": 0.5, "theta_deg": 0.0}]}


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# the parse, object and field checks that both readers share (validate.json_object)
@pytest.mark.parametrize("read, error, source, message", [
    (load_map, MapFormatError, "{", "invalid JSON: "),
    (load_map, MapFormatError, b"[1, 2]", "map document must be a JSON object"),
    (load_map, MapFormatError, [MAP], "map document must be a JSON object"),
    (load_map, MapFormatError, json.dumps(without(MAP, "origin")), "missing field 'origin'"),
    (load_map, MapFormatError, without(MAP, "width"), "missing field 'width'"),
    (timed_from_json, TrajectoryError, "not json", "invalid JSON: "),
    (timed_from_json, TrajectoryError, "3", "trajectory document must be a JSON object"),
    (timed_from_json, TrajectoryError, json.dumps(without(TRAJECTORY, "dt")),
     "missing field 'dt'"),
    (timed_from_json, TrajectoryError, without(TRAJECTORY, "samples"),
     "missing field 'samples'"),
])
def test_json_prologue_errors(read, error, source, message):
    with pytest.raises(error) as info:
        read(source)
    assert str(info.value).startswith(message)

